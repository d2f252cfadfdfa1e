// lumos_perfbench — runs one benchmark workload and writes what it saw.
//
//   lumos_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --out REPORT.json [--size full|tiny] [--setups K]
//                   [--setup-seconds T]
//
// Set-up synthesises the workload's inputs at least K times, and more (up
// to 3K) until T seconds of set-up have been measured; each is timed and
// the last one is kept. The timed phase then runs the workload's units one after
// another, single-threaded, in passes, until S seconds of unit time have
// been measured (S = 0: exactly one pass). With --trace 1 the passes
// alternate untraced and traced, and every call into a lumos layer is
// recorded as a span. The report holds the set-up times, every unit
// execution (wall time, job records, checked outputs, work counts) and the
// spans; run.py turns it into metrics and checks the outputs against the
// committed reference.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  Size size = Size::Full;
  int setups = 3;
  double setup_seconds = 0.0;
  std::string out;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "lumos_perfbench: " << message << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage("bad argument: " + flag);
    }
    kv[flag.substr(2)] = argv[i + 1];
  }
  try {
    a.workload = kv.at("workload");
    a.seed = std::stoull(kv.at("seed"));
    a.seconds = std::stod(kv.at("seconds"));
    a.trace = kv.at("trace") == "1";
    a.out = kv.at("out");
    if (kv.count("size") != 0) {
      if (kv["size"] == "tiny") {
        a.size = Size::Tiny;
      } else if (kv["size"] != "full") {
        usage("--size is full or tiny");
      }
    }
    if (kv.count("setups") != 0) a.setups = std::stoi(kv["setups"]);
    if (kv.count("setup-seconds") != 0) {
      a.setup_seconds = std::stod(kv["setup-seconds"]);
    }
  } catch (const std::exception&) {
    usage("need --workload --seed --seconds --trace --out");
  }
  if (a.setups < 1) usage("--setups must be at least 1");
  return a;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Execution {
  std::uint32_t id = 0;
  int pass = 0;
  std::string unit;
  bool traced = false;
  double wall_s = 0.0;
  std::uint64_t jobs = 0;
  std::string error;         ///< empty when the unit returned
  bool has_outputs = false;  ///< outputs recorded (first run or changed)
  UnitResult result;
};

void write_object(std::ostream& out,
                  const std::vector<std::pair<std::string, std::string>>& kv,
                  bool quote_values) {
  out << '{';
  for (std::size_t i = 0; i < kv.size(); ++i) {
    out << (i ? ", " : "") << quote(kv[i].first) << ": "
        << (quote_values ? quote(kv[i].second) : kv[i].second);
  }
  out << '}';
}

void write_counts(std::ostream& out, const Counts& counts) {
  std::vector<std::pair<std::string, std::string>> kv;
  for (const auto& [k, v] : counts) kv.emplace_back(k, number(v));
  write_object(out, kv, false);
}

int run(const Args& args) {
  Tracer tracer;
  tracer.set_enabled(args.trace);
  std::uint32_t next_id = 0;

  std::vector<double> setup_s;
  double setup_total = 0.0;
  std::unique_ptr<Workload> workload;
  for (int r = 0; r < args.setups ||
                  (setup_total < args.setup_seconds && r < 3 * args.setups);
       ++r) {
    workload.reset();  // at most one copy of the inputs is ever resident
    tracer.set_unit(next_id++);
    const std::int64_t t0 = now_ns();
    {
      auto span = tracer.span("setup");
      workload = set_up(args.workload, args.seed, args.size, tracer);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    setup_total += setup_s.back();
  }

  std::vector<Execution> executions;
  std::map<std::string, Outputs> first_outputs;
  double timed_s = 0.0;
  for (int pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    for (const Unit& unit : workload->units) {
      Execution e;
      e.id = next_id++;
      e.pass = pass;
      e.unit = unit.name;
      e.traced = traced;
      e.jobs = unit.jobs;
      tracer.set_unit(e.id);
      const std::int64_t t0 = now_ns();
      std::int64_t t1 = 0;
      try {
        Check check;
        {
          auto span = tracer.span("unit");
          check = unit.run(tracer);
        }
        t1 = now_ns();
        e.result = check();
      } catch (const std::exception& ex) {
        if (t1 == 0) t1 = now_ns();
        e.error = ex.what();
        if (e.error.empty()) e.error = "exception";
      }
      e.wall_s = static_cast<double>(t1 - t0) * 1e-9;
      timed_s += e.wall_s;
      if (e.error.empty()) {
        auto [it, fresh] = first_outputs.emplace(unit.name,
                                                 e.result.outputs);
        e.has_outputs = fresh || !(it->second == e.result.outputs);
      }
      executions.push_back(std::move(e));
    }
    const int min_passes = args.trace ? 2 : 1;
    if (pass + 1 >= min_passes && timed_s >= args.seconds) break;
  }

  std::ofstream out(args.out);
  out << "{\"workload\": " << quote(args.workload)
      << ", \"seed\": " << args.seed << ", \"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    out << (i ? ", " : "") << number(setup_s[i]);
  }
  out << "], \"setup_counts\": ";
  write_counts(out, workload->setup_counts);
  out << ",\n\"executions\": [\n";
  for (std::size_t i = 0; i < executions.size(); ++i) {
    const Execution& e = executions[i];
    out << (i ? ",\n" : "") << "{\"id\": " << e.id << ", \"pass\": "
        << e.pass << ", \"unit\": " << quote(e.unit)
        << ", \"traced\": " << (e.traced ? "true" : "false")
        << ", \"wall_s\": " << number(e.wall_s) << ", \"jobs\": " << e.jobs
        << ", \"error\": "
        << (e.error.empty() ? std::string("null") : quote(e.error))
        << ", \"counts\": ";
    write_counts(out, e.result.counts);
    out << ", \"outputs\": ";
    if (e.has_outputs) {
      write_object(out, e.result.outputs.values, true);
    } else {
      out << "null";
    }
    out << '}';
  }
  out << "],\n\"spans\": [\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "") << "[" << quote(s.name) << ", " << s.unit << ", "
        << s.parent << ", " << s.start_ns << ", " << s.end_ns << "]";
  }
  out << "]}\n";
  out.close();
  if (!out) {
    std::cerr << "lumos_perfbench: cannot write " << args.out << '\n';
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "lumos_perfbench: " << e.what() << '\n';
    return 1;
  }
}
