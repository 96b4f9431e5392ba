// Machine-readable bench telemetry.
//
// Each bench binary owns one Telemetry object; phase() fences wall-clock
// sections ("world", "campaign", "analysis", ...) and value() records the
// headline numbers the bench printed for humans. On destruction (or an
// explicit finish()) the object writes BENCH_<name>.json to the working
// directory, so scripts/run_benches.sh leaves a parseable record of every
// run next to the textual bench_output.txt:
//
//   {
//     "bench": "table1",
//     "total_seconds": 12.345,
//     "phases": {"world": 1.204, "campaign": 10.881},
//     "values": {"ases": 5200, "threads": 8, "rr_over_ping": 0.751}
//   }
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace rr::bench {

/// Peak resident set (VmHWM) of this process in MiB, from
/// /proc/self/status; 0 if unavailable (non-Linux). Recorded by every
/// bench's telemetry so memory regressions gate exactly like time
/// regressions (scripts/check_bench_regression.sh).
inline double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

class Telemetry {
 public:
  explicit Telemetry(std::string name)
      : name_(std::move(name)), start_(Clock::now()) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  ~Telemetry() { finish(); }

  /// Closes the current phase (if any) and starts timing a new one.
  void phase(std::string phase_name) {
    close_phase();
    current_ = std::move(phase_name);
    phase_start_ = Clock::now();
  }

  /// Closes the current phase (if any) and records a phase whose time
  /// the caller measured.
  void phase_seconds(std::string phase_name, double seconds) {
    close_phase();
    phases_.emplace_back(std::move(phase_name), seconds);
  }

  void value(const std::string& key, double v) {
    values_.emplace_back(key, format_double(v));
  }
  template <typename T,
            typename std::enable_if_t<std::is_integral_v<T>, int> = 0>
  void value(const std::string& key, T v) {
    values_.emplace_back(key, std::to_string(v));
  }
  void value(const std::string& key, const std::string& v) {
    values_.emplace_back(key, "\"" + escaped(v) + "\"");
  }

  /// Closes the last phase and writes BENCH_<name>.json. Idempotent.
  /// Every bench gets a "threads" and "peak_rss_mib" value whether or not
  /// it recorded one itself, so the telemetry schema is uniform across
  /// the bench suite (benches with a testbed overwrite "threads" with the
  /// testbed's resolved count via record_world; the default below is the
  /// same resolution rule).
  void finish() {
    if (written_) return;
    written_ = true;
    close_phase();
    if (!has_value("threads")) {
      value("threads", util::resolve_thread_count(0));
    }
    if (!has_value("peak_rss_mib")) {
      value("peak_rss_mib", peak_rss_mib());
    }
    // Uniform probing-cost triple (PR 9): benches that drive probes
    // overwrite these; the defaults keep the schema identical across the
    // suite so run_benches.sh can tabulate every bench the same way.
    if (!has_value("probes_sent")) value("probes_sent", std::uint64_t{0});
    if (!has_value("probes_saved")) value("probes_saved", std::uint64_t{0});
    if (!has_value("stopset_hit_rate")) value("stopset_hit_rate", 0.0);
    const double total = seconds_since(start_);
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "telemetry: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"total_seconds\": %s,\n",
                 escaped(name_).c_str(), format_double(total).c_str());
    std::fprintf(f, "  \"phases\": {");
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i ? ", " : "",
                   escaped(phases_[i].first).c_str(),
                   format_double(phases_[i].second).c_str());
    }
    std::fprintf(f, "},\n  \"values\": {");
    for (std::size_t i = 0; i < values_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i ? ", " : "",
                   escaped(values_[i].first).c_str(),
                   values_[i].second.c_str());
    }
    std::fprintf(f, "}\n}\n");
    std::fclose(f);
    std::printf("  (telemetry written to %s)\n", path.c_str());
  }

 private:
  using Clock = std::chrono::steady_clock;

  static double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  static std::string format_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  void close_phase() {
    if (current_.empty()) return;
    phases_.emplace_back(current_, seconds_since(phase_start_));
    current_.clear();
  }

  [[nodiscard]] bool has_value(const std::string& key) const {
    for (const auto& [k, v] : values_) {
      if (k == key) return true;
    }
    return false;
  }

  std::string name_;
  Clock::time_point start_;
  Clock::time_point phase_start_{};
  std::string current_;
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<std::pair<std::string, std::string>> values_;
  bool written_ = false;
};

}  // namespace rr::bench
