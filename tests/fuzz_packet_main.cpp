// Packet-corpus fuzz driver: throws arbitrary bytes at every parser in the
// packet layer and asserts two properties on each of them:
//
//   1. no-crash / no-UB: parsers reject garbage by returning nullopt, never
//      by reading out of bounds (run under ASan+UBSan in CI);
//   2. parse-serialize-parse fixpoint: for any input that parses, one
//      serialization canonicalizes it — serialize(parse(serialize(parse(b))))
//      == serialize(parse(b)) byte for byte.
//
// The same bytes, sealed with a valid trailing checksum, also go to the
// dataset file parser (CampaignDataset::parse), which must neither crash
// nor throw; a dataset that parses must re-derive Table 1 and round-trip
// through serialize() unchanged.
//
// The in-place mutators of packet/mutate.h are additionally exercised for
// memory safety on arbitrary buffers (they may decline, they must not
// scribble out of bounds).
//
// Two entry points share the harness:
//   * a libFuzzer target (build with -DRROPT_LIBFUZZER=ON, which compiles
//     this file with -fsanitize=fuzzer and no main());
//   * a standalone main() that replays a built-in seed corpus through a
//     deterministic seeded mutator (util::Rng) — the mode CI runs. Knobs:
//       RROPT_FUZZ_ITERS    mutation iterations (default 20000)
//       RROPT_FUZZ_SECONDS  wall-clock budget that wins over the iteration
//                           count when set (CI uses 30)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "netbase/byte_io.h"
#include "netbase/checksum.h"
#include "packet/datagram.h"
#include "packet/icmp.h"
#include "packet/ipv4.h"
#include "packet/mutate.h"
#include "packet/options.h"
#include "packet/udp.h"
#include "packet/view.h"
#include "sim/element.h"
#include "sim/fault.h"
#include "sim/pipeline.h"
#include "util/rng.h"

namespace {

using rr::net::ByteWriter;

[[noreturn]] void fail(const char* property,
                       std::span<const std::uint8_t> input) {
  std::fprintf(stderr, "FUZZ FAILURE: %s\ninput (%zu bytes):", property,
               input.size());
  for (const auto byte : input) std::fprintf(stderr, " %02x", byte);
  std::fprintf(stderr, "\n");
  std::abort();
}

#define FUZZ_CHECK(cond, property)          \
  do {                                      \
    if (!(cond)) fail((property), input);   \
  } while (0)

/// parse → serialize → parse → serialize must reach a fixpoint after the
/// first serialization (the parse is canonicalizing, the serializer is not
/// allowed to lose or invent information after that).
void check_options(std::span<const std::uint8_t> input) {
  const auto parsed = rr::pkt::parse_options(input);
  if (!parsed) return;
  ByteWriter w1;
  if (!rr::pkt::serialize_options(*parsed, w1)) {
    // A parsed list only fails to serialize when the input was longer than
    // a real option area can be (parse_options accepts any span length).
    FUZZ_CHECK(input.size() > static_cast<std::size_t>(rr::pkt::kMaxOptionBytes),
               "options: in-area parse refused to serialize");
    return;
  }
  const auto b2 = std::move(w1).take();
  const auto reparsed = rr::pkt::parse_options(b2);
  FUZZ_CHECK(reparsed.has_value(), "options: serialized form must reparse");
  ByteWriter w2;
  FUZZ_CHECK(rr::pkt::serialize_options(*reparsed, w2),
             "options: reparsed form must serialize");
  FUZZ_CHECK(std::move(w2).take() == b2, "options: fixpoint");
}

void check_ipv4(std::span<const std::uint8_t> input) {
  const auto parsed = rr::pkt::Ipv4Header::parse(input);
  if (!parsed) return;
  ByteWriter w1;
  FUZZ_CHECK(parsed->serialize(w1, 0), "ipv4: parsed header must serialize");
  const auto b2 = std::move(w1).take();
  const auto reparsed = rr::pkt::Ipv4Header::parse(b2);
  FUZZ_CHECK(reparsed.has_value(), "ipv4: serialized form must reparse");
  ByteWriter w2;
  FUZZ_CHECK(reparsed->serialize(w2, 0), "ipv4: reparsed must serialize");
  FUZZ_CHECK(std::move(w2).take() == b2, "ipv4: fixpoint");
}

void check_icmp(std::span<const std::uint8_t> input) {
  const auto parsed = rr::pkt::IcmpMessage::parse(input);
  if (!parsed) return;
  ByteWriter w1;
  parsed->serialize(w1);
  const auto b2 = std::move(w1).take();
  const auto reparsed = rr::pkt::IcmpMessage::parse(b2);
  FUZZ_CHECK(reparsed.has_value(), "icmp: serialized form must reparse");
  ByteWriter w2;
  reparsed->serialize(w2);
  FUZZ_CHECK(std::move(w2).take() == b2, "icmp: fixpoint");
}

void check_udp(std::span<const std::uint8_t> input) {
  const auto parsed = rr::pkt::UdpDatagram::parse(input);
  if (!parsed) return;
  ByteWriter w1;
  parsed->serialize(w1);
  const auto b2 = std::move(w1).take();
  const auto reparsed = rr::pkt::UdpDatagram::parse(b2);
  FUZZ_CHECK(reparsed.has_value(), "udp: serialized form must reparse");
  ByteWriter w2;
  reparsed->serialize(w2);
  FUZZ_CHECK(std::move(w2).take() == b2, "udp: fixpoint");
}

void check_datagram(std::span<const std::uint8_t> input) {
  const auto parsed = rr::pkt::Datagram::parse(input);
  if (!parsed) return;
  const auto b2 = parsed->serialize();
  FUZZ_CHECK(b2.has_value(), "datagram: parsed datagram must serialize");
  const auto reparsed = rr::pkt::Datagram::parse(*b2);
  FUZZ_CHECK(reparsed.has_value(), "datagram: serialized form must reparse");
  const auto b3 = reparsed->serialize();
  FUZZ_CHECK(b3.has_value(), "datagram: reparsed must serialize");
  FUZZ_CHECK(*b3 == *b2, "datagram: fixpoint");
}

/// The in-place mutators must be memory-safe on arbitrary buffers: each
/// either applies cleanly or declines, and a buffer that parsed before a
/// *successful* structural mutation still parses after it.
void check_mutators(std::span<const std::uint8_t> input) {
  std::vector<std::uint8_t> buf(input.begin(), input.end());
  (void)rr::pkt::peek_ttl(buf);
  (void)rr::pkt::peek_protocol(buf);
  (void)rr::pkt::peek_source(buf);
  (void)rr::pkt::peek_destination(buf);
  (void)rr::pkt::has_ip_options(buf);
  (void)rr::pkt::find_rr(buf);

  const bool was_valid = rr::pkt::Datagram::parse(buf).has_value();
  const auto check_still_valid = [&](bool applied, const char* op) {
    if (!was_valid || !applied) return;
    if (!rr::pkt::Datagram::parse(buf).has_value()) fail(op, input);
    (void)op;
  };
  check_still_valid(rr::pkt::decrement_ttl(buf).has_value() &&
                        rr::pkt::peek_ttl(buf).value_or(1) != 0,
                    "mutate: decrement_ttl broke a valid datagram");
  check_still_valid(
      rr::pkt::rr_stamp(buf, rr::net::IPv4Address::from_bytes(10, 1, 2, 3)),
      "mutate: rr_stamp broke a valid datagram");
  check_still_valid(
      rr::pkt::ts_stamp(buf, rr::net::IPv4Address::from_bytes(10, 1, 2, 3),
                        12345),
      "mutate: ts_stamp broke a valid datagram");
  check_still_valid(rr::pkt::rr_truncate(buf),
                    "mutate: rr_truncate broke a valid datagram");
  check_still_valid(
      rr::pkt::rr_garble(buf,
                         rr::net::IPv4Address::from_bytes(240, 9, 9, 9)),
      "mutate: rr_garble broke a valid datagram");
  check_still_valid(rr::pkt::blank_options(buf),
                    "mutate: blank_options broke a valid datagram");
  check_still_valid(rr::pkt::strip_options(buf),
                    "mutate: strip_options broke a valid datagram");
  check_still_valid(rr::pkt::mangle_icmp_quote(buf),
                    "mutate: mangle_icmp_quote broke a valid datagram");
  // Checksum corruption must make a valid datagram *unparseable* (that is
  // its whole point), and must never crash on garbage.
  if (rr::pkt::corrupt_header_checksum(buf) && was_valid) {
    FUZZ_CHECK(!rr::pkt::Datagram::parse(buf).has_value(),
               "mutate: corrupt_header_checksum left the checksum valid");
  }
  (void)rr::pkt::rewrite_header_checksum(buf);
}

/// The element dataplane (sim/pipeline.h) walked over arbitrary bytes:
/// compiled run lists — including the trusted/fused stamping fast paths,
/// whose guards are exactly what garbage tries to slip past — must be
/// memory-safe on any buffer, and a walk whose every verdict is kContinue
/// must leave a valid datagram valid (elements maintain the checksum).
void check_pipeline_walk(std::span<const std::uint8_t> input) {
  using namespace rr::sim;
  static const RunTable trusted_table = compile_run_table(PipelineConfig{});
  static const RunTable faulted_table =
      compile_run_table(PipelineConfig{true, 0.1, 0.1});
  static const rr::sim::FaultPlan plan{FaultParams::uniform(0.05)};
  static const ElementSet elements = [] {
    ElementSet es;
    es.fault.plan = &plan;
    es.storm.plan = &plan;
    es.stamp.plan = &plan;
    es.base_loss.probability = 0.1;
    es.slow_loss.probability = 0.1;
    return es;
  }();

  const bool was_valid = rr::pkt::Datagram::parse(input).has_value();
  constexpr std::uint8_t kPersonalities[] = {
      HopRow::kStamps,
      HopRow::kStamps | HopRow::kRateLimited,
      HopRow::kFiltersEdge,
      HopRow::kHidden | HopRow::kStamps,
  };
  for (const bool faulted : {false, true}) {
    const RunTable& table = faulted ? faulted_table : trusted_table;
    for (const std::uint8_t flags : kPersonalities) {
      std::vector<std::uint8_t> buf(input.begin(), input.end());
      rr::pkt::Ipv4HeaderView view{buf};
      NetCounters counters;
      FaultCounters fault_counters;
      ProbeTrace trace;
      HopContext ctx;
      ctx.view = &view;
      ctx.bytes = buf;
      ctx.has_options = rr::pkt::has_ip_options(buf);
      ctx.flow = 0x1234;
      ctx.src_as = 1;
      ctx.dst_as = 2;
      ctx.counters = &counters;
      ctx.fault_counters = &fault_counters;
      ctx.trace = &trace;
      const PackedRunList list =
          table[(ctx.has_options ? HopRow::kNumPersonalities : 0) + flags];
      bool walked_clean = true;
      for (std::size_t hop = 0; hop < 8; ++hop) {
        ctx.router = static_cast<rr::topo::RouterId>(hop % 4);
        ctx.egress = rr::net::IPv4Address::from_bytes(
            10, 1, 0, static_cast<std::uint8_t>(hop + 1));
        ctx.as_id = static_cast<std::uint32_t>(1 + hop % 3);
        ctx.hop = hop;
        ctx.now = 0.05 * static_cast<double>(hop);
        if (run_hop(list, elements, ctx) != HopVerdict::kContinue) {
          walked_clean = false;
          break;
        }
      }
      if (was_valid && walked_clean) {
        FUZZ_CHECK(rr::pkt::Datagram::parse(buf).has_value(),
                   "pipeline: clean walk broke a valid datagram");
      }
    }
  }
}

/// The input is a dataset body: it is sealed with the pad and checksum
/// serialize() appends, or nearly every mutation would stop at the
/// checksum check instead of reaching the parser's count and field checks.
void check_dataset(std::span<const std::uint8_t> input) {
  using rr::data::CampaignDataset;
  ByteWriter sealed;
  sealed.bytes(input);
  if (sealed.size() % 2 != 0) sealed.u8(0);
  sealed.u16(rr::net::internet_checksum(sealed.view()));
  std::optional<CampaignDataset> parsed;
  try {
    parsed = CampaignDataset::parse(sealed.view());
  } catch (...) {
    fail("dataset: parse threw", input);
  }
  if (!parsed) return;
  (void)parsed->response_table();
  const auto reparsed = CampaignDataset::parse(parsed->serialize());
  FUZZ_CHECK(reparsed.has_value() && *reparsed == *parsed,
             "dataset: serialize/parse round trip");
}

void run_one(std::span<const std::uint8_t> input) {
  check_options(input);
  check_ipv4(input);
  check_icmp(input);
  check_udp(input);
  check_datagram(input);
  check_mutators(input);
  check_pipeline_walk(input);
  check_dataset(input);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  run_one({data, size});
  return 0;
}

#ifndef RROPT_LIBFUZZER

namespace {

using rr::net::IPv4Address;

/// Well-formed packets of every species the simulator produces, plus
/// hand-built pathological encodings that target the parsers' length and
/// pointer arithmetic.
std::vector<std::vector<std::uint8_t>> seed_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  const auto src = IPv4Address::from_bytes(10, 0, 0, 1);
  const auto dst = IPv4Address::from_bytes(10, 9, 9, 9);

  const auto add = [&](const rr::pkt::Datagram& d) {
    if (auto bytes = d.serialize()) corpus.push_back(std::move(*bytes));
  };
  add(rr::pkt::make_ping(src, dst, 7, 1));
  add(rr::pkt::make_ping(src, dst, 7, 2, 64, rr::pkt::kMaxRrSlots));
  add(rr::pkt::make_ping(src, dst, 7, 3, 1, 4));
  add(rr::pkt::make_ping_ts(src, dst, 7, 4));
  add(rr::pkt::make_udp_probe(src, dst, 4242, rr::pkt::kUdpProbePortBase));

  // A half-stamped ping-RR (what a mid-path router sees).
  {
    auto half = rr::pkt::make_ping(src, dst, 7, 5, 64, rr::pkt::kMaxRrSlots);
    auto bytes = half.serialize();
    if (bytes) {
      for (int i = 0; i < 4; ++i) {
        (void)rr::pkt::rr_stamp(*bytes,
                                IPv4Address::from_bytes(10, 0, 1, i));
        (void)rr::pkt::decrement_ttl(*bytes);
      }
      corpus.push_back(std::move(*bytes));
    }
  }

  // ICMP errors quoting a stamped probe (Time Exceeded / Port Unreachable).
  {
    const auto probe =
        rr::pkt::make_ping(src, dst, 7, 6, 3, rr::pkt::kMaxRrSlots);
    const auto probe_bytes = probe.serialize();
    if (probe_bytes) {
      rr::pkt::Datagram error;
      error.header.source = IPv4Address::from_bytes(10, 0, 3, 1);
      error.header.destination = src;
      error.header.protocol = rr::pkt::IpProto::kIcmp;
      error.payload = rr::pkt::IcmpMessage::error(
          rr::pkt::IcmpType::kTimeExceeded, 0, *probe_bytes, 8);
      add(error);
      error.payload = rr::pkt::IcmpMessage::error(
          rr::pkt::IcmpType::kDestUnreachable, 3, *probe_bytes, 8);
      add(error);
    }
  }

  // Bare option areas (parse_options operates on these directly).
  corpus.push_back({});                          // empty
  corpus.push_back({0x01, 0x01, 0x01, 0x00});    // NOP NOP NOP EOL
  corpus.push_back({0x07, 0x07, 0x04,            // RR, 1 slot, empty
                    0x00, 0x00, 0x00, 0x00, 0x00});
  corpus.push_back({0x07, 0x27, 0x28,            // RR, full 9 slots
                    0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x02,
                    0x0a, 0x00, 0x00, 0x03, 0x0a, 0x00, 0x00, 0x04,
                    0x0a, 0x00, 0x00, 0x05, 0x0a, 0x00, 0x00, 0x06,
                    0x0a, 0x00, 0x00, 0x07, 0x0a, 0x00, 0x00, 0x08,
                    0x0a, 0x00, 0x00, 0x09, 0x00});
  // Pathological: RR length overruns the area; RR pointer 0; RR pointer
  // past length; TS pointer 0 (the ts_stamp regression); TS pointer
  // misaligned; option length 1 (flag-style, illegal here); truncated
  // mid-option.
  corpus.push_back({0x07, 0x28, 0x04, 0x00});
  corpus.push_back({0x07, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});
  corpus.push_back({0x07, 0x07, 0x2c, 0x00, 0x00, 0x00, 0x00, 0x00});
  corpus.push_back({0x44, 0x0c, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
                    0x00, 0x00, 0x00, 0x00});
  corpus.push_back({0x44, 0x0c, 0x06, 0x01, 0x00, 0x00, 0x00, 0x00,
                    0x00, 0x00, 0x00, 0x00});
  corpus.push_back({0x83, 0x01});
  corpus.push_back({0x07, 0x07, 0x04, 0x00});

  // A small dataset body (serialize() minus its checksum; a pad byte, if
  // any, stays and re-seals to the same file): two VPs, one destination
  // of every AS type, and a matrix of mixed observations.
  {
    rr::data::CampaignDataset dataset;
    dataset.description = "fuzz seed";
    dataset.vps = {{"site-a", 0}, {"site-b", 1}};
    for (std::uint8_t type = 0; type < rr::topo::kNumAsTypes; ++type) {
      dataset.destinations.push_back({0x0a000001u + type, 64512u + type,
                                      type,
                                      static_cast<std::uint8_t>(type % 2)});
    }
    const std::size_t cells =
        dataset.vps.size() * dataset.destinations.size();
    for (std::size_t i = 0; i < cells; ++i) {
      rr::measure::RrObservation obs;
      obs.flags = static_cast<std::uint8_t>(i * 5);
      obs.stamp_count = static_cast<std::uint8_t>(i % 10);
      obs.dest_slot = static_cast<std::uint8_t>(i % 9);
      obs.free_slots = static_cast<std::uint8_t>(9 - i % 10);
      dataset.observations.push_back(obs);
    }
    auto bytes = dataset.serialize();
    bytes.resize(bytes.size() - 2);
    corpus.push_back(std::move(bytes));
  }

  // Truncated / implausible fixed headers.
  corpus.push_back({0x45});
  corpus.push_back(std::vector<std::uint8_t>(20, 0x00));
  corpus.push_back(std::vector<std::uint8_t>(20, 0xff));
  {
    std::vector<std::uint8_t> bad_ihl(24, 0);
    bad_ihl[0] = 0x4f;  // IHL 15 (60 bytes) but only 24 present
    corpus.push_back(std::move(bad_ihl));
  }
  return corpus;
}

/// Deterministic byte-level mutator (bit flips, byte sets, truncation,
/// extension, 16-bit tweaks) — no libFuzzer needed for the CI pass.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> bytes,
                                 rr::util::Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < edits; ++e) {
    switch (rng.next_below(6)) {
      case 0:  // bit flip
        if (!bytes.empty()) {
          bytes[rng.next_below(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      case 1:  // byte set
        if (!bytes.empty()) {
          bytes[rng.next_below(bytes.size())] =
              static_cast<std::uint8_t>(rng.next_below(256));
        }
        break;
      case 2:  // truncate
        if (!bytes.empty()) {
          bytes.resize(rng.next_below(bytes.size()));
        }
        break;
      case 3:  // extend with random tail
        for (std::size_t n = rng.next_below(8) + 1; n-- > 0;) {
          bytes.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
        }
        break;
      case 4:  // tweak a plausible length/pointer field hard
        if (bytes.size() >= 4) {
          bytes[rng.next_below(4)] =
              static_cast<std::uint8_t>(rng.next_below(256));
        }
        break;
      default:  // duplicate a chunk (self-splice)
        if (bytes.size() >= 2) {
          const std::size_t at = rng.next_below(bytes.size() - 1);
          const std::size_t len =
              std::min<std::size_t>(rng.next_below(8) + 1,
                                    bytes.size() - at);
          bytes.insert(bytes.end(), bytes.begin() + at,
                       bytes.begin() + at + len);
        }
        break;
    }
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0xF022;
  long long iters = 20000;
  double seconds = 0.0;
  if (const char* s = std::getenv("RROPT_FUZZ_ITERS")) iters = std::atoll(s);
  if (const char* s = std::getenv("RROPT_FUZZ_SECONDS")) seconds = std::atof(s);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    }
  }

  const auto corpus = seed_corpus();
  for (const auto& entry : corpus) run_one(entry);
  std::printf("seed corpus: %zu entries ok\n", corpus.size());

  rr::util::Rng rng{seed};
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  long long ran = 0;
  for (long long i = 0; seconds > 0.0 || i < iters; ++i, ++ran) {
    if (seconds > 0.0) {
      if (std::chrono::steady_clock::now() >= deadline) break;
    }
    const auto& base = corpus[rng.next_below(corpus.size())];
    const auto mutated = mutate(base, rng);
    run_one(mutated);
  }
  std::printf("fuzz: %lld mutated inputs ok (seed %llu)\n", ran,
              static_cast<unsigned long long>(seed));
  return 0;
}

#endif  // RROPT_LIBFUZZER
