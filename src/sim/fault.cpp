#include "sim/fault.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/strings.h"

namespace rr::sim {

namespace {

/// Uniform [0,1) from a mixed key — same construction as the loss draws in
/// sim/network.cpp so fault decisions share their statistical quality.
double unit_from_key(std::uint64_t key) noexcept {
  return static_cast<double>(util::mix64(key) >> 11) * 0x1.0p-53;
}

/// A rate: a finite number in [0, 1].
double parse_rate(std::string_view text, const std::string& name) {
  return util::parse_double(text, name, 0.0, 1.0);
}

/// A duration in virtual seconds: a finite number above zero.
double parse_duration(std::string_view text, const std::string& name) {
  return util::parse_double(text, name, std::numeric_limits<double>::min());
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kRrTruncate: return "rr_truncate";
    case FaultKind::kRrGarble: return "rr_garble";
    case FaultKind::kChecksumCorrupt: return "checksum_corrupt";
    case FaultKind::kOptionStrip: return "option_strip";
    case FaultKind::kByzantineStamp: return "byzantine_stamp";
    case FaultKind::kQuoteMangle: return "quote_mangle";
    case FaultKind::kDuplicateReply: return "duplicate_reply";
    case FaultKind::kReorderReply: return "reorder_reply";
    case FaultKind::kStorm: return "storm";
  }
  return "unknown";
}

FaultParams FaultParams::uniform(double rate) noexcept {
  FaultParams p;
  p.rr_truncate = rate;
  p.rr_garble = rate;
  p.checksum_corrupt = rate;
  p.option_strip = rate;
  p.byzantine_stamp = rate;
  p.quote_mangle = rate;
  p.duplicate_reply = rate;
  p.reorder_reply = rate;
  p.storm = rate;
  return p;
}

bool FaultParams::any() const noexcept {
  return rr_truncate > 0.0 || rr_garble > 0.0 || checksum_corrupt > 0.0 ||
         option_strip > 0.0 || byzantine_stamp > 0.0 || quote_mangle > 0.0 ||
         duplicate_reply > 0.0 || reorder_reply > 0.0 || storm > 0.0;
}

FaultParams parse_fault_plan(std::string_view spec) {
  static const std::string kFlag = "--fault-plan";
  if (spec.empty() || spec == "none") return FaultParams{};

  // "uniform:<rate>", or a bare number as shorthand for it.
  if (spec.rfind("uniform:", 0) == 0) {
    return FaultParams::uniform(parse_rate(spec.substr(8), kFlag));
  }
  if (spec.find('=') == std::string_view::npos) {
    return FaultParams::uniform(parse_rate(spec, kFlag));
  }

  FaultParams params;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument(kFlag + ": expected knob=value, got '" +
                                  std::string{item} + "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    const std::string name = kFlag + ": " + std::string{key};
    if (key == "seed") {
      params.seed = util::parse_uint(value, name);
    } else if (key == "rr_truncate") {
      params.rr_truncate = parse_rate(value, name);
    } else if (key == "rr_garble") {
      params.rr_garble = parse_rate(value, name);
    } else if (key == "checksum_corrupt") {
      params.checksum_corrupt = parse_rate(value, name);
    } else if (key == "option_strip") {
      params.option_strip = parse_rate(value, name);
    } else if (key == "byzantine_stamp") {
      params.byzantine_stamp = parse_rate(value, name);
    } else if (key == "quote_mangle") {
      params.quote_mangle = parse_rate(value, name);
    } else if (key == "duplicate_reply") {
      params.duplicate_reply = parse_rate(value, name);
    } else if (key == "reorder_reply") {
      params.reorder_reply = parse_rate(value, name);
    } else if (key == "storm") {
      params.storm = parse_rate(value, name);
    } else if (key == "storm_period_s") {
      params.storm_period_s = parse_duration(value, name);
    } else if (key == "reorder_delay_s") {
      params.reorder_delay_s = parse_duration(value, name);
    } else {
      throw std::invalid_argument(kFlag + ": unknown knob '" +
                                  std::string{key} + "'");
    }
  }
  return params;
}

std::string to_string(const FaultParams& params) {
  std::ostringstream out;
  out << "faults:";
  bool wrote = false;
  const auto emit = [&](const char* name, double value) {
    if (value <= 0.0) return;
    out << ' ' << name << '=' << value;
    wrote = true;
  };
  emit("rr_truncate", params.rr_truncate);
  emit("rr_garble", params.rr_garble);
  emit("checksum_corrupt", params.checksum_corrupt);
  emit("option_strip", params.option_strip);
  emit("byzantine_stamp", params.byzantine_stamp);
  emit("quote_mangle", params.quote_mangle);
  emit("duplicate_reply", params.duplicate_reply);
  emit("reorder_reply", params.reorder_reply);
  emit("storm", params.storm);
  if (!wrote) out << " none";
  return out.str();
}

bool FaultPlan::draw(FaultKind kind, std::uint64_t flow, int leg,
                     std::size_t hop, double p) const noexcept {
  if (!enabled_ || p <= 0.0) return false;
  if (p >= 1.0) return true;
  return unit_from_key(key(kind, flow, leg, hop)) < p;
}

double FaultPlan::reorder_delay(std::uint64_t flow) const noexcept {
  // Strictly positive so a reordered reply is always strictly later than
  // its in-order arrival would have been.
  const double unit =
      unit_from_key(key(FaultKind::kReorderReply, flow, 1, 1));
  return params_.reorder_delay_s * (0.5 + 0.5 * unit);
}

bool FaultPlan::storm_active(topo::RouterId router,
                             double now) const noexcept {
  if (!enabled_ || params_.storm <= 0.0) return false;
  const double period =
      params_.storm_period_s > 0.0 ? params_.storm_period_s : 0.5;
  const auto window =
      static_cast<std::uint64_t>(std::floor(std::max(0.0, now) / period));
  const std::uint64_t storm_key =
      util::mix64(params_.seed ^ (static_cast<std::uint64_t>(router) << 32) ^
                  window ^ 0x53544F524DULL);  // "STORM"
  if (params_.storm >= 1.0) return true;
  return unit_from_key(storm_key) < params_.storm;
}

}  // namespace rr::sim
