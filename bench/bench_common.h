// Shared helpers for the benchmark/reproduction binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "util/telemetry.h"

namespace tapo::bench {

// Reads a positive integer from the environment; returns fallback when the
// variable is unset or unparsable. Used to scale the heavy harnesses down
// (e.g. TAPO_RUNS=3 TAPO_NODES=40 ./bench_fig6_improvement).
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (!value) return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

// Telemetry sink for bench binaries, sharing the runtime registry and JSON
// shape ("tapo-telemetry-v1", docs/OBSERVABILITY.md) so bench results and
// tapo_cli --telemetry-out files are directly comparable artifacts.
//
// Returns the process-wide registry when TAPO_TELEMETRY_OUT names an output
// file, else null — so harness code can pass the result straight into
// Stage1Options / SimOptions and record its own bench.* gauges behind a
// null check, exactly like library call sites.
inline util::telemetry::Registry* telemetry_sink() {
  static util::telemetry::Registry registry;
  return std::getenv("TAPO_TELEMETRY_OUT") ? &registry : nullptr;
}

// Serializes the sink to $TAPO_TELEMETRY_OUT (no-op when unset). Call once
// at the end of main, after the last run that records into the sink.
inline void write_telemetry() {
  const char* path = std::getenv("TAPO_TELEMETRY_OUT");
  util::telemetry::Registry* registry = telemetry_sink();
  if (!path || !registry) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write telemetry to '%s'\n", path);
    return;
  }
  registry->to_json(out);
  std::fprintf(stderr, "wrote telemetry to %s\n", path);
}

}  // namespace tapo::bench
