#include "data/dataset.h"

#include <array>
#include <fstream>

#include "netbase/byte_io.h"
#include "netbase/checksum.h"
#include "topology/types.h"
#include "util/log.h"

namespace rr::data {

namespace {

void write_string(net::ByteWriter& out, const std::string& text) {
  out.u32(static_cast<std::uint32_t>(text.size()));
  out.bytes({reinterpret_cast<const std::uint8_t*>(text.data()),
             text.size()});
}

std::optional<std::string> read_string(net::ByteReader& in) {
  const std::uint32_t length = in.u32();
  if (!in.ok() || length > (1u << 24)) return std::nullopt;
  const auto bytes = in.bytes(length);
  if (!in.ok()) return std::nullopt;
  return std::string{reinterpret_cast<const char*>(bytes.data()),
                     bytes.size()};
}

/// Streams the serialized body (everything before the pad + trailing
/// checksum) to `sink` in bounded chunks, so hashing or writing a
/// census-scale dataset (~300 MB of observations) never materializes the
/// full byte buffer. serialize() runs on the same emitter, so the stream
/// is the format by construction — the two cannot drift.
template <typename Sink>
void emit_body(const CampaignDataset& dataset, Sink&& sink) {
  constexpr std::size_t kFlushBytes = std::size_t{1} << 16;
  net::ByteWriter out{kFlushBytes + 512};
  const auto flush = [&] {
    sink(out.view());
    out.clear();
  };
  out.u32(CampaignDataset::kMagic);
  out.u16(CampaignDataset::kVersion);
  write_string(out, dataset.description);
  out.u32(static_cast<std::uint32_t>(dataset.vps.size()));
  out.u32(static_cast<std::uint32_t>(dataset.destinations.size()));
  for (const auto& vp : dataset.vps) {
    write_string(out, vp.site);
    out.u8(vp.platform);
    if (out.size() >= kFlushBytes) flush();
  }
  for (const auto& dest : dataset.destinations) {
    out.u32(dest.address);
    out.u32(dest.asn);
    out.u8(dest.as_type);
    out.u8(dest.ping_responsive);
    if (out.size() >= kFlushBytes) flush();
  }
  for (const auto& obs : dataset.observations) {
    out.u8(obs.flags);
    out.u8(obs.stamp_count);
    out.u8(obs.dest_slot);
    out.u8(obs.free_slots);
    if (out.size() >= kFlushBytes) flush();
  }
  flush();
}

/// Accumulates the streamed body's running RFC 1071 checksum (chunks may
/// end on an odd byte, so the dangling byte carries to the next chunk) and
/// total length — enough to reproduce serialize()'s pad + checksum trailer
/// without the buffer.
struct TrailerState {
  std::uint32_t partial = 0;
  std::size_t size = 0;
  bool half_word = false;
  std::uint8_t dangling = 0;

  void feed(std::span<const std::uint8_t> chunk) {
    size += chunk.size();
    if (half_word && !chunk.empty()) {
      partial += (std::uint32_t{dangling} << 8) | chunk.front();
      chunk = chunk.subspan(1);
      half_word = false;
    }
    if (chunk.size() % 2 != 0) {
      dangling = chunk.back();
      half_word = true;
      chunk = chunk.first(chunk.size() - 1);
    }
    partial = net::checksum_partial(chunk, partial);
  }

  /// Pad byte (if the body length is odd) followed by the wire checksum,
  /// exactly the bytes serialize() appends.
  [[nodiscard]] std::array<std::uint8_t, 3> trailer() const {
    TrailerState padded = *this;
    std::size_t n = 0;
    std::array<std::uint8_t, 3> bytes{};
    if (padded.size % 2 != 0) {
      const std::uint8_t zero = 0;
      padded.feed({&zero, 1});
      bytes[n++] = 0;
    }
    const std::uint16_t sum = net::checksum_finish(padded.partial);
    bytes[n++] = static_cast<std::uint8_t>(sum >> 8);
    bytes[n] = static_cast<std::uint8_t>(sum);
    return bytes;
  }

  [[nodiscard]] std::size_t trailer_size() const noexcept {
    return size % 2 != 0 ? 3 : 2;
  }
};

}  // namespace

namespace {

/// Everything from_campaign copies except the observation matrix.
CampaignDataset freeze_metadata(const measure::Campaign& campaign,
                                std::string description) {
  CampaignDataset dataset;
  dataset.description = std::move(description);
  const auto& topology = campaign.topology();

  dataset.vps.reserve(campaign.num_vps());
  for (const auto* vp : campaign.vps()) {
    dataset.vps.push_back(
        DatasetVp{vp->site, static_cast<std::uint8_t>(vp->platform)});
  }

  dataset.destinations.reserve(campaign.num_destinations());
  for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
    const topo::Host& host = topology.host_at(campaign.destinations()[d]);
    DatasetDestination dest;
    dest.address = host.address.value();
    dest.asn = topology.as_at(host.as_id).asn;
    dest.as_type = static_cast<std::uint8_t>(topology.as_at(host.as_id).type);
    dest.ping_responsive = campaign.ping_responsive(d) ? 1 : 0;
    dataset.destinations.push_back(dest);
  }
  return dataset;
}

}  // namespace

CampaignDataset CampaignDataset::from_campaign(
    const measure::Campaign& campaign, std::string description) {
  CampaignDataset dataset =
      freeze_metadata(campaign, std::move(description));
  dataset.observations.reserve(campaign.num_vps() *
                               campaign.num_destinations());
  for (std::size_t v = 0; v < campaign.num_vps(); ++v) {
    for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
      dataset.observations.push_back(campaign.at(v, d));
    }
  }
  return dataset;
}

CampaignDataset CampaignDataset::from_campaign(measure::Campaign&& campaign,
                                               std::string description) {
  CampaignDataset dataset =
      freeze_metadata(campaign, std::move(description));
  // The campaign stores observations row-major [vp][destination] — the
  // dataset's exact layout — so surrendering the matrix is bit-identical
  // to the copying overload.
  dataset.observations = campaign.take_observations();
  return dataset;
}

std::vector<std::uint8_t> CampaignDataset::serialize() const {
  net::ByteWriter out;
  TrailerState trailer;
  emit_body(*this, [&](std::span<const std::uint8_t> chunk) {
    trailer.feed(chunk);
    out.bytes(chunk);
  });
  // Trailing checksum over everything for corruption detection. The
  // one's-complement arithmetic needs 16-bit alignment, so pad first.
  const auto tail = trailer.trailer();
  out.bytes({tail.data(), trailer.trailer_size()});
  return std::move(out).take();
}

std::uint64_t CampaignDataset::content_hash() const {
  // FNV-1a over the streamed serialization — the same bytes (and hash)
  // serialize() would produce, at O(1) extra memory instead of a second
  // dataset-sized buffer.
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&hash](std::span<const std::uint8_t> chunk) {
    for (const std::uint8_t byte : chunk) {
      hash ^= byte;
      hash *= 0x100000001b3ULL;  // FNV prime
    }
  };
  TrailerState trailer;
  emit_body(*this, [&](std::span<const std::uint8_t> chunk) {
    trailer.feed(chunk);
    mix(chunk);
  });
  const auto tail = trailer.trailer();
  mix({tail.data(), trailer.trailer_size()});
  return hash;
}

std::optional<CampaignDataset> CampaignDataset::parse(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 16) return std::nullopt;
  // Validate the trailing checksum first.
  if (!net::checksum_ok(bytes)) return std::nullopt;

  net::ByteReader in{bytes.first(bytes.size() - 2)};
  CampaignDataset dataset;
  if (in.u32() != kMagic) return std::nullopt;
  if (in.u16() != kVersion) return std::nullopt;
  auto description = read_string(in);
  if (!description) return std::nullopt;
  dataset.description = std::move(*description);

  const std::uint32_t n_vps = in.u32();
  const std::uint32_t n_dests = in.u32();
  if (!in.ok()) return std::nullopt;
  // Sanity caps against corrupt headers.
  if (n_vps > 100000 || n_dests > 50000000) return std::nullopt;
  // The counts must also fit the bytes that follow, checked before
  // anything is reserved: a VP record takes at least 5 bytes (empty site,
  // platform), a destination 10 and an observation 4. The caps keep the
  // products far inside 64 bits.
  const std::uint64_t cells = std::uint64_t{n_vps} * n_dests;
  const std::uint64_t tail_bytes = std::uint64_t{n_dests} * 10 + cells * 4;
  if (in.remaining() < std::uint64_t{n_vps} * 5 + tail_bytes) {
    return std::nullopt;
  }

  dataset.vps.reserve(n_vps);
  for (std::uint32_t v = 0; v < n_vps; ++v) {
    auto site = read_string(in);
    if (!site) return std::nullopt;
    DatasetVp vp;
    vp.site = std::move(*site);
    vp.platform = in.u8();
    dataset.vps.push_back(std::move(vp));
  }
  // VP sites vary in length, so recheck against what the table left.
  if (!in.ok() || in.remaining() < tail_bytes) return std::nullopt;
  dataset.destinations.reserve(n_dests);
  for (std::uint32_t d = 0; d < n_dests; ++d) {
    DatasetDestination dest;
    dest.address = in.u32();
    dest.asn = in.u32();
    dest.as_type = in.u8();
    dest.ping_responsive = in.u8();
    // response_table() indexes its per-type rows by this field.
    if (dest.as_type >= topo::kNumAsTypes) return std::nullopt;
    dataset.destinations.push_back(dest);
  }
  dataset.observations.reserve(cells);
  for (std::uint64_t i = 0; i < cells; ++i) {
    measure::RrObservation obs;
    obs.flags = in.u8();
    obs.stamp_count = in.u8();
    obs.dest_slot = in.u8();
    obs.free_slots = in.u8();
    dataset.observations.push_back(obs);
  }
  // Only the optional alignment pad may remain.
  if (!in.ok() || in.remaining() > 1) return std::nullopt;
  if (in.remaining() == 1 && in.u8() != 0) return std::nullopt;
  return dataset;
}

bool CampaignDataset::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  TrailerState trailer;
  emit_body(*this, [&](std::span<const std::uint8_t> chunk) {
    trailer.feed(chunk);
    out.write(reinterpret_cast<const char*>(chunk.data()),
              static_cast<std::streamsize>(chunk.size()));
  });
  const auto tail = trailer.trailer();
  out.write(reinterpret_cast<const char*>(tail.data()),
            static_cast<std::streamsize>(trailer.trailer_size()));
  return static_cast<bool>(out);
}

std::optional<CampaignDataset> CampaignDataset::load(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const auto size = in.tellg();
  if (size <= 0) return std::nullopt;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) return std::nullopt;
  return parse(bytes);
}

bool CampaignDataset::rr_responsive(std::size_t dest) const noexcept {
  for (std::size_t v = 0; v < vps.size(); ++v) {
    if (at(v, dest).rr_responsive()) return true;
  }
  return false;
}

bool CampaignDataset::rr_reachable(std::size_t dest) const noexcept {
  for (std::size_t v = 0; v < vps.size(); ++v) {
    if (at(v, dest).rr_reachable()) return true;
  }
  return false;
}

int CampaignDataset::min_rr_distance(std::size_t dest) const noexcept {
  int best = 0;
  for (std::size_t v = 0; v < vps.size(); ++v) {
    const auto& obs = at(v, dest);
    if (!obs.rr_reachable()) continue;
    if (best == 0 || obs.dest_slot < best) best = obs.dest_slot;
  }
  return best;
}

measure::ResponseTable CampaignDataset::response_table() const {
  measure::ResponseTally tally;
  for (std::size_t d = 0; d < destinations.size(); ++d) {
    const auto& dest = destinations[d];
    tally.add(dest.asn, static_cast<topo::AsType>(dest.as_type),
              dest.ping_responsive != 0, rr_responsive(d));
  }
  return tally.table();
}

}  // namespace rr::data
