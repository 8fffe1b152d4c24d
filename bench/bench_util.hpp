// Shared console-table helpers for the reproduction harnesses. Every
// bench_fig* / bench_cost* binary prints the paper's reported values next to
// the values this implementation measures, so EXPERIMENTS.md can be filled
// by running the binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aes_backend.hpp"
#include "scenario/spec.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_merge.hpp"

namespace discs::bench {

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void row(const std::string& label, double paper, double measured,
                const char* unit = "") {
  std::printf("  %-44s paper: %10.4g   measured: %10.4g %s\n", label.c_str(),
              paper, measured, unit);
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

/// Prints a curve as "count value" pairs, gnuplot-ready.
inline void curve(const std::string& name, const std::vector<std::size_t>& xs,
                  const std::vector<double>& ys) {
  std::printf("  # curve: %s\n", name.c_str());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::printf("  %8zu  %.6f\n", xs[i], ys[i]);
  }
}

/// Machine-readable companion to the console tables: collects
/// section/key/value metrics plus string labels and writes them as one JSON
/// document (results/bench_*.json), so a driver can diff runs without
/// scraping the printf output. Sections, keys and labels keep insertion
/// order. Every document carries a schema_version stamp so the driver can
/// detect layout changes.
class JsonWriter {
 public:
  /// Bumped whenever the document layout changes (2 = labels object added).
  static constexpr int kSchemaVersion = 2;

  explicit JsonWriter(std::string bench_name) : name_(std::move(bench_name)) {}

  void metric(const std::string& section, const std::string& key,
              double value) {
    entries_.push_back({section, key, value});
  }

  /// String metadata stamped into a top-level "labels" object (backend,
  /// host facts, smoke flag). Setting an existing key overwrites it.
  void label(const std::string& key, const std::string& value) {
    for (auto& [k, v] : labels_) {
      if (k == key) {
        v = value;
        return;
      }
    }
    labels_.emplace_back(key, value);
  }

  /// Writes the document; returns false (and prints a note) when the path
  /// is not writable. Typical path: "results/bench_<name>.json" from the
  /// repository root.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("  # json: could not open %s for writing\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"schema_version\": %d,",
                 name_.c_str(), kSchemaVersion);
    std::fprintf(f, "\n  \"labels\": {");
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": \"%s\"", i == 0 ? "" : ",",
                   labels_[i].first.c_str(), labels_[i].second.c_str());
    }
    std::fprintf(f, "\n  },\n  \"metrics\": {");
    std::vector<std::string> sections;
    for (const Entry& e : entries_) {
      bool seen = false;
      for (const std::string& s : sections) seen = seen || s == e.section;
      if (!seen) sections.push_back(e.section);
    }
    for (std::size_t si = 0; si < sections.size(); ++si) {
      std::fprintf(f, "%s\n    \"%s\": {", si == 0 ? "" : ",",
                   sections[si].c_str());
      bool first = true;
      for (const Entry& e : entries_) {
        if (e.section != sections[si]) continue;
        std::fprintf(f, "%s\n      \"%s\": %.10g", first ? "" : ",",
                     e.key.c_str(), e.value);
        first = false;
      }
      std::fprintf(f, "\n    }");
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("  # json: wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Entry {
    std::string section;
    std::string key;
    double value;
  };
  std::string name_;
  std::vector<std::pair<std::string, std::string>> labels_;
  std::vector<Entry> entries_;
};

/// Command line shared by the harness binaries:
///   bench_x [--smoke] [--scenario FILE] [--trace FILE] [--metrics FILE]
///           [OUTPUT.json]
/// --smoke shrinks workloads for the CI sanity leg; --scenario replaces the
/// bench's built-in workload spec with a .scn file (scenario-driven benches
/// only); --trace/--metrics name the Chrome-trace and metrics-snapshot side
/// files. --trace is only for benches that record a trace (finish() fails
/// the run otherwise).
struct Args {
  bool smoke = false;
  std::string scenario_path;  // empty = the bench's built-in spec
  std::string trace_path;     // empty = no trace requested
  std::string metrics_path;   // empty = no metrics snapshot requested
  std::string output;         // the results/bench_<name>.json document
};

inline Args parse_args(int argc, char** argv, const std::string& bench_name) {
  Args args;
  args.output = "results/bench_" + bench_name + ".json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--scenario" && i + 1 < argc) {
      args.scenario_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      args.trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      args.metrics_path = argv[++i];
    } else {
      args.output = arg;
    }
  }
  return args;
}

/// Resolves a scenario-driven bench's workload: the --scenario file when
/// given, else `builtin_text` (the bench's embedded default, which must
/// parse). The spec's identity is stamped into the results document as
/// schema-2 labels — scenario name, FNV-1a content hash over the canonical
/// serialization, and the root seed — so two JSON files are comparable iff
/// their scenario labels match. Exits on an unreadable/invalid file.
inline scenario::ScenarioSpec load_bench_scenario(const Args& args,
                                                  const char* builtin_text,
                                                  JsonWriter& json) {
  scenario::ScenarioSpec spec;
  if (!args.scenario_path.empty()) {
    auto loaded = scenario::load_scenario(args.scenario_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "--scenario %s: %s\n", args.scenario_path.c_str(),
                   loaded.error().to_string().c_str());
      std::exit(2);
    }
    spec = std::move(*loaded);
  } else {
    auto parsed = scenario::parse_scenario(builtin_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "built-in scenario is invalid: %s\n",
                   parsed.error().to_string().c_str());
      std::exit(2);
    }
    spec = std::move(*parsed);
  }
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(scenario::scenario_hash(spec)));
  json.label("scenario", spec.name);
  json.label("scenario_hash", hash);
  json.label("scenario_seed", std::to_string(spec.seed));
  return spec;
}

/// The one way bench mains create their results document: stamps the
/// schema version plus the backend/env labels every bench_*.json carries,
/// so the per-bench plumbing cannot drift.
inline JsonWriter make_writer(const std::string& bench_name, const Args& args) {
  JsonWriter json(bench_name);
  json.label("backend", to_string(aes_backend()));
  json.label("hardware_concurrency",
             std::to_string(std::thread::hardware_concurrency()));
  json.label("smoke", args.smoke ? "true" : "false");
  return json;
}

/// The intermediate shard a bench's SpanTracer streams to under --trace.
inline std::string trace_shard_path(const Args& args) {
  return args.trace_path + ".shard.jsonl";
}

/// Opens `tracer`'s shard when --trace was given; without the flag the
/// tracer stays closed and its records go nowhere.
inline void open_trace(const Args& args, telemetry::SpanTracer& tracer) {
  if (!args.trace_path.empty()) tracer.open(trace_shard_path(args));
}

/// Writes the results document and, when the flags asked for them, the
/// metrics snapshot (--metrics, scraped from `registry` or the global one)
/// and the Chrome trace (--trace, rendered from the shard `tracer` streamed
/// after open_trace). --trace on a bench that passes no tracer is an error,
/// not a silent no-op.
inline bool finish(const JsonWriter& json, const Args& args,
                   telemetry::MetricsRegistry* registry = nullptr,
                   const telemetry::SpanTracer* tracer = nullptr) {
  bool ok = json.write(args.output);
  if (!args.metrics_path.empty()) {
    ok = telemetry::write_metrics_json(
             registry != nullptr ? *registry
                                 : telemetry::MetricsRegistry::global(),
             args.metrics_path) &&
         ok;
  }
  if (!args.trace_path.empty()) {
    if (tracer == nullptr) {
      std::fprintf(stderr, "--trace %s: this bench records no trace\n",
                   args.trace_path.c_str());
      return false;
    }
    const std::string shard = trace_shard_path(args);
    ok = telemetry::write_chrome_trace({shard}, args.trace_path) && ok;
    std::remove(shard.c_str());
  }
  return ok;
}

}  // namespace discs::bench
