// Benchmark program: runs one workload and prints its raw result as one JSON
// line on stdout (run.py turns it into metrics). Progress goes to stderr.
//
//   perfbench --workload train|train_mt|datagen|serve --seed N
//             --seconds S --trace 0|1 --workdir DIR
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "obs/json.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

// Shortest text that reads back as the same double.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (int digits = 15; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += rn::obs::json_escape(s);
  out += '"';
  return out;
}

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

std::string object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += quoted(k) + ":" + num(v);
  }
  return out + "}";
}

std::string to_json(const RunResult& r) {
  std::string errors = "[";
  for (const std::string& e : r.errors) {
    if (errors.size() > 1) errors += ',';
    errors += quoted(e);
  }
  errors += "]";
  std::string self = "[";
  for (const perfbench::SelfTime& s : r.self_times) {
    if (self.size() > 1) self += ',';
    self += "{\"name\":" + quoted(s.name) +
            ",\"count\":" + std::to_string(s.count) +
            ",\"total_ms\":" + num(s.total_ms) +
            ",\"self_ms\":" + num(s.self_ms) + "}";
  }
  self += "]";
  std::string windows = "[";
  for (const auto& [units, seconds] : r.windows) {
    if (windows.size() > 1) windows += ',';
    windows += '[';
    windows += num(units);
    windows += ',';
    windows += num(seconds);
    windows += ']';
  }
  windows += "]";
  return "{\"setup_s\":" + array(r.setup_s) + ",\"item_s\":" + array(r.item_s) +
         ",\"work_units\":" + num(r.work_units) +
         ",\"measure_s\":" + num(r.measure_s) + ",\"windows\":" + windows +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"peak_rss_mb\":" + num(perfbench::peak_rss_mb()) +
         ",\"errors\":" + errors + ",\"info\":" + object(r.info) +
         ",\"layers\":" + object(r.layers) + ",\"self_times\":" + self + "}";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train|train_mt|datagen|serve --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--workdir") {
      o.workdir = val;
    } else {
      usage("unknown flag " + key);
    }
  }
  if (o.workdir.empty()) usage("--workdir is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  try {
    std::filesystem::create_directories(opts.workdir);
    RunResult r;
    if (opts.workload == "train") {
      r = perfbench::run_train(opts, 1);
    } else if (opts.workload == "train_mt") {
      r = perfbench::run_train(opts, 4);
    } else if (opts.workload == "datagen") {
      r = perfbench::run_datagen(opts);
    } else if (opts.workload == "serve") {
      r = perfbench::run_serve(opts);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
    std::printf("%s\n", to_json(r).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
