#include "topology/generator.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "util/log.h"
#include "util/rng.h"

namespace rr::topo {

namespace {

/// Knuth's Poisson sampler; fine for the small means used here.
int poisson(util::Rng& rng, double mean) {
  if (mean <= 0.0) return 0;
  const double limit = std::exp(-mean);
  double product = rng.next_double();
  int count = 0;
  while (product > limit) {
    ++count;
    product *= rng.next_double();
  }
  return count;
}

/// Shifted geometric with the requested mean >= 1: 1 + Geom.
int shifted_geometric(util::Rng& rng, double mean, int cap) {
  if (mean <= 1.0) return 1;
  const double extra_mean = mean - 1.0;
  const double continue_prob = extra_mean / (1.0 + extra_mean);
  int count = 1;
  while (count < cap && rng.chance(continue_prob)) ++count;
  return count;
}

std::size_t tier_index(AsTier tier) noexcept {
  return static_cast<std::size_t>(tier);
}

}  // namespace

/// The one record the serial pass keeps beside the topology: routers gain
/// interfaces at several distinct moments (core fan-out, then one
/// interface per incident link), so the (router, address) pairs are kept
/// in creation order and grouped per router at the end.
struct Generator::BuildPlan {
  /// A router's first entry is its loopback.
  std::vector<std::pair<RouterId, net::IPv4Address>> interfaces;

  /// Appends a router to the topology and to its AS's router list.
  RouterId add_router(Topology& topo, AsId as, bool border,
                      net::IPv4Address loopback) {
    const RouterId id = static_cast<RouterId>(topo.routers_.size());
    topo.routers_.push_back({as, loopback, border});
    topo.ases_[as].routers.push_back(id);
    interfaces.emplace_back(id, loopback);
    return id;
  }

  /// Groups the interfaces into the topology's interface runs with a
  /// stable counting sort: each router's run keeps creation order, so
  /// its loopback comes first.
  void lay_out_interfaces(Topology& topo) const {
    std::vector<std::uint32_t>& offset = topo.iface_offset_;
    offset.assign(topo.routers_.size() + 1, 0);
    for (const auto& [rid, addr] : interfaces) ++offset[rid + 1];
    std::partial_sum(offset.begin(), offset.end(), offset.begin());
    topo.iface_arena_.resize(interfaces.size());
    std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (const auto& [rid, addr] : interfaces) {
      topo.iface_arena_[cursor[rid]++] = addr;
    }
  }
};

struct Generator::AllocState {
  struct Chunk {
    std::uint32_t next = 0;
    std::uint32_t end = 0;
  };
  std::vector<Chunk> infra;  // per-AS current infrastructure /24 chunk

  /// Next unique infrastructure address for an AS, pulling fresh /24
  /// blocks of the address plan (Topology::alloc_block) as needed.
  net::IPv4Address infra_addr(Topology& topo, AsId as) {
    Chunk& chunk = infra[as];
    if (chunk.next >= chunk.end) {
      const net::Prefix block = topo.alloc_block(as);
      chunk.next = block.base().value() + 1;  // skip .0
      chunk.end = block.base().value() + 255;  // skip .255
    }
    return net::IPv4Address{chunk.next++};
  }
};

HostId Generator::add_host(Topology& topo, AsId as, RouterId access,
                           net::IPv4Address address, int aliases) {
  const HostId id = static_cast<HostId>(topo.hosts_.size());
  topo.hosts_.push_back({as, access, address});
  // A host with aliases owns the run [address, aliases...]; one without
  // owns an empty run.
  if (aliases > 0) {
    for (std::uint32_t k = 0; k <= static_cast<std::uint32_t>(aliases); ++k) {
      topo.alias_arena_.push_back(net::IPv4Address{address.value() + k});
    }
  }
  topo.alias_offset_.push_back(
      static_cast<std::uint32_t>(topo.alias_arena_.size()));
  return id;
}

std::shared_ptr<const Topology> Generator::generate() {
  auto topo = std::make_shared<Topology>();
  util::Rng rng{params_.seed};
  AllocState alloc;
  BuildPlan plan;

  assign_types_and_tiers(*topo, rng);
  select_site_ases(*topo, rng);
  alloc.infra.resize(topo->ases_.size());
  build_provider_links(*topo, rng);
  build_peering_links(*topo, rng);
  build_routers(*topo, plan, alloc);
  build_destinations(*topo, plan, alloc, rng);
  place_vantage_points(*topo, plan, alloc, rng);
  plan.lay_out_interfaces(*topo);
  topo->compile();

  util::log_info() << "generated topology: " << topo->summary();
  return topo;
}

void Generator::assign_types_and_tiers(Topology& topo, util::Rng& rng) {
  const int n = params_.num_ases;
  std::vector<AsType> types;
  types.reserve(static_cast<std::size_t>(n));
  // Deterministic per-type counts from the fractions; remainder -> unknown.
  int assigned = 0;
  for (int t = 0; t < kNumAsTypes - 1; ++t) {
    const int count = static_cast<int>(
        std::lround(params_.type_fraction[static_cast<std::size_t>(t)] * n));
    for (int i = 0; i < count && assigned < n; ++i, ++assigned) {
      types.push_back(static_cast<AsType>(t));
    }
  }
  while (assigned < n) {
    types.push_back(AsType::kUnknown);
    ++assigned;
  }
  rng.shuffle(types);

  topo.ases_.resize(static_cast<std::size_t>(n));
  std::vector<AsId> transit_ases;
  for (int i = 0; i < n; ++i) {
    AsInfo& as = topo.ases_[static_cast<std::size_t>(i)];
    as.asn = static_cast<std::uint32_t>(i + 1);
    as.type = types[static_cast<std::size_t>(i)];
    if (as.type == AsType::kTransitAccess) {
      transit_ases.push_back(static_cast<AsId>(i));
    }
  }

  // Hierarchy within the transit ASes: tier-1 core, large transits,
  // regional transits (a quarter of which sit one level deeper).
  rng.shuffle(transit_ases);
  const std::size_t n_tier1 = std::min<std::size_t>(
      static_cast<std::size_t>(params_.num_tier1), transit_ases.size());
  const std::size_t n_large = std::min<std::size_t>(
      static_cast<std::size_t>(
          std::lround(params_.large_transit_fraction *
                      static_cast<double>(transit_ases.size()))) +
          1,
      transit_ases.size() - n_tier1);
  for (std::size_t i = 0; i < transit_ases.size(); ++i) {
    AsInfo& as = topo.ases_[transit_ases[i]];
    if (i < n_tier1) {
      as.tier = AsTier::kTier1;
      as.depth = 1;
    } else if (i < n_tier1 + n_large) {
      as.tier = AsTier::kLargeTransit;
      as.depth = 2;
    } else {
      as.tier = AsTier::kRegionalTransit;
      // Regional transit comes in layers: metro fabrics at the colos
      // (depth 3), in-country regionals (4), and remote/rural chains (5).
      const double roll = rng.next_double();
      as.depth = roll < 0.45 ? 3 : (roll < 0.78 ? 4 : 5);
    }
  }

  // Everything non-transit is a stub; depth is set once providers are known.
  for (auto& as : topo.ases_) {
    if (as.type != AsType::kTransitAccess) {
      as.tier = AsTier::kStub;
      as.depth = 5;
    }
    const auto t = tier_index(as.tier);
    const int lo = params_.internal_hops_min[t];
    const int hi = params_.internal_hops_max[t];
    as.internal_hops =
        static_cast<std::uint8_t>(rng.next_in(lo, hi));
  }

  // Colo/IXP presence: a slice of the shallow regional transits.
  for (AsId id : transit_ases) {
    AsInfo& as = topo.ases_[id];
    if (as.tier == AsTier::kRegionalTransit && as.depth == 3 &&
        rng.chance(params_.colo_fraction /
                   (0.75 /* fraction of regionals at depth 3 */))) {
      as.colo_presence = true;
    }
    if (as.tier == AsTier::kLargeTransit && rng.chance(0.35)) {
      as.colo_presence = true;
    }
    // Colo fabrics are a single switching stage: crossing them costs no
    // extra core hops. Deep regional chains run real backbones.
    if (as.colo_presence) as.internal_hops = 0;
    if (as.tier == AsTier::kRegionalTransit && as.depth >= 4) {
      as.internal_hops = static_cast<std::uint8_t>(rng.next_in(1, 2));
    }
  }

  // Cloud providers: flat, content-heavy networks at depth 2.
  int clouds_needed = params_.num_cloud_providers;
  for (auto& as : topo.ases_) {
    if (clouds_needed == 0) break;
    if (as.type == AsType::kContent && as.tier == AsTier::kStub) {
      as.cloud = true;
      as.tier = AsTier::kLargeTransit;  // backbone build-out
      as.depth = 2;
      as.internal_hops = 1;
      --clouds_needed;
    }
  }
}

void Generator::select_site_ases(Topology& topo, util::Rng& rng) {
  std::vector<AsId> colos, regionals, enterprise_stubs;
  for (AsId id = 0; id < topo.ases_.size(); ++id) {
    const AsInfo& as = topo.ases_[id];
    if (as.cloud) continue;
    if (as.colo_presence) colos.push_back(id);
    if (as.tier == AsTier::kRegionalTransit && !as.colo_presence) {
      regionals.push_back(id);
    }
    if (as.tier == AsTier::kStub && as.type == AsType::kEnterprise) {
      enterprise_stubs.push_back(id);
    }
  }
  rng.shuffle(colos);
  rng.shuffle(regionals);
  rng.shuffle(enterprise_stubs);

  const std::size_t mega = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(params_.mega_colo_count, 0)),
      colos.size());
  mega_colos_.assign(colos.begin(), colos.begin() + mega);

  // M-Lab pool: hubs first, then ordinary colos, then regionals.
  std::vector<AsId> mlab_pool = colos;
  mlab_pool.insert(mlab_pool.end(), regionals.begin(), regionals.end());
  const std::size_t mlab_needed = static_cast<std::size_t>(
      params_.mlab_sites_2016 +
      std::max(0, params_.mlab_sites_2011 - params_.mlab_common_sites));
  mlab_site_ases_.assign(
      mlab_pool.begin(),
      mlab_pool.begin() + std::min(mlab_needed, mlab_pool.size()));

  const std::size_t plab_needed = static_cast<std::size_t>(
      params_.planetlab_sites_2016 +
      std::max(0, params_.planetlab_sites_2011 -
                      params_.planetlab_common_sites) +
      1 /* the plain-ping probe host */);
  plab_site_ases_.assign(
      enterprise_stubs.begin(),
      enterprise_stubs.begin() +
          std::min(plab_needed, enterprise_stubs.size()));
}

void Generator::build_provider_links(Topology& topo, util::Rng& rng) {
  std::vector<AsId> tier1, large, regional_shallow, regional_deep;
  for (AsId id = 0; id < topo.ases_.size(); ++id) {
    const AsInfo& as = topo.ases_[id];
    if (as.cloud) continue;  // clouds handled explicitly below
    switch (as.tier) {
      case AsTier::kTier1: tier1.push_back(id); break;
      case AsTier::kLargeTransit: large.push_back(id); break;
      case AsTier::kRegionalTransit:
        (as.depth == 3 ? regional_shallow : regional_deep).push_back(id);
        break;
      case AsTier::kStub: break;
    }
  }

  auto add_c2p = [&](AsId customer, AsId provider, bool in_2011 = true) {
    const auto key = Topology::pair_key(customer, provider);
    if (topo.link_by_pair_.contains(key)) return;
    AsLink link;
    link.a = customer;
    link.b = provider;
    link.kind = LinkKind::kCustomerProvider;
    link.exists_in_2011 = in_2011;  // most of the hierarchy is long-lived
    const LinkId id = static_cast<LinkId>(topo.links_.size());
    topo.links_.push_back(link);
    topo.link_by_pair_.emplace(key, id);
    topo.ases_[customer].links.push_back(id);
    topo.ases_[provider].links.push_back(id);
  };

  auto pick_providers = [&](AsId customer, const std::vector<AsId>& pool,
                            int count) {
    if (pool.empty()) return;
    for (int i = 0; i < count; ++i) {
      const AsId provider = rng.pick(pool);
      if (provider != customer) add_c2p(customer, provider);
    }
  };

  const auto provider_count = [&](util::Rng& r) {
    return 1 + r.next_geometric(params_.extra_provider_prob,
                                params_.max_providers - 1);
  };

  for (AsId id : large) pick_providers(id, tier1, provider_count(rng));
  for (AsId id : regional_shallow) {
    // Shallow regionals buy mostly from large transits, sometimes tier-1.
    const int count = provider_count(rng);
    for (int i = 0; i < count; ++i) {
      const auto& pool = (rng.chance(0.75) && !large.empty()) ? large : tier1;
      if (!pool.empty()) add_c2p(id, rng.pick(pool));
    }
  }
  for (AsId id : regional_deep) {
    // Depth-4 regionals buy from the metro fabric; depth-5 chains hang off
    // depth-4s (keeping the provider graph acyclic by construction).
    std::vector<AsId> pool;
    if (topo.ases_[id].depth == 4) {
      pool = regional_shallow.empty() ? large : regional_shallow;
    } else {
      for (AsId candidate : regional_deep) {
        if (topo.ases_[candidate].depth == 4) pool.push_back(candidate);
      }
      if (pool.empty()) pool = regional_shallow.empty() ? large
                                                        : regional_shallow;
    }
    pick_providers(id, pool, provider_count(rng));
  }

  std::vector<AsId> colo_ases;
  for (AsId id = 0; id < topo.ases_.size(); ++id) {
    if (topo.ases_[id].colo_presence) colo_ases.push_back(id);
  }
  const std::unordered_set<AsId> plab_set(plab_site_ases_.begin(),
                                          plab_site_ases_.end());

  // Stubs attach below the transit hierarchy.
  for (AsId id = 0; id < topo.ases_.size(); ++id) {
    AsInfo& as = topo.ases_[id];
    if (as.tier != AsTier::kStub || as.cloud) continue;
    const int count = provider_count(rng);
    std::uint8_t min_provider_depth = 255;
    // PlanetLab campuses: by 2016 their R&E fabrics land at the colos
    // (half of them at the big hubs), but that interconnection is part of
    // the flattening — in 2011 the same campuses sat behind deep regional
    // chains.
    if (plab_set.contains(id)) {
      if (!colo_ases.empty() &&
          rng.chance(params_.plab_colo_provider_prob)) {
        const AsId provider = (!mega_colos_.empty() && rng.chance(0.8))
                                  ? rng.pick(mega_colos_)
                                  : rng.pick(colo_ases);
        add_c2p(id, provider, /*in_2011=*/false);
        min_provider_depth = topo.ases_[provider].depth;
      }
      const auto& pool_2011 =
          !regional_deep.empty() ? regional_deep
          : (!regional_shallow.empty() ? regional_shallow : large);
      if (!pool_2011.empty()) {
        const AsId provider = rng.pick(pool_2011);
        add_c2p(id, provider, /*in_2011=*/true);
        min_provider_depth =
            std::min(min_provider_depth, topo.ases_[provider].depth);
      }
      as.depth = static_cast<std::uint8_t>(min_provider_depth + 1);
      continue;  // no further random providers for campuses
    }
    for (int i = 0; i < count; ++i) {
      const double roll = rng.next_double();
      const std::vector<AsId>* pool = nullptr;
      if (roll < 0.40 && !regional_shallow.empty()) {
        pool = &regional_shallow;
      } else if (roll < 0.75 && !regional_deep.empty()) {
        pool = &regional_deep;
      } else if (!large.empty()) {
        pool = &large;
      } else {
        pool = &tier1;
      }
      if (pool->empty()) continue;
      const AsId provider = rng.pick(*pool);
      add_c2p(id, provider);
      min_provider_depth =
          std::min(min_provider_depth, topo.ases_[provider].depth);
    }
    if (min_provider_depth == 255 && !tier1.empty()) {
      const AsId provider = rng.pick(tier1);
      add_c2p(id, provider);
      min_provider_depth = topo.ases_[provider].depth;
    }
    as.depth = static_cast<std::uint8_t>(min_provider_depth + 1);
  }

  // Clouds multihome to tier-1s.
  for (AsId id = 0; id < topo.ases_.size(); ++id) {
    if (!topo.ases_[id].cloud) continue;
    pick_providers(id, tier1, 2);
  }
}

void Generator::build_peering_links(Topology& topo, util::Rng& rng) {
  std::vector<AsId> tier1, large, regional, colo, transit_all;
  for (AsId id = 0; id < topo.ases_.size(); ++id) {
    const AsInfo& as = topo.ases_[id];
    if (as.tier == AsTier::kTier1) tier1.push_back(id);
    if (as.tier == AsTier::kLargeTransit && !as.cloud) large.push_back(id);
    if (as.tier == AsTier::kRegionalTransit) regional.push_back(id);
    if (as.colo_presence) colo.push_back(id);
    if (!as.cloud && (as.tier == AsTier::kLargeTransit ||
                      as.tier == AsTier::kRegionalTransit ||
                      as.tier == AsTier::kTier1)) {
      transit_all.push_back(id);
    }
  }

  auto add_peer = [&](AsId a, AsId b, bool in_2011) {
    if (a == b) return;
    const auto key = Topology::pair_key(a, b);
    if (topo.link_by_pair_.contains(key)) return;
    AsLink link;
    link.a = a;
    link.b = b;
    link.kind = LinkKind::kPeerPeer;
    link.exists_in_2011 = in_2011;
    const LinkId id = static_cast<LinkId>(topo.links_.size());
    topo.links_.push_back(link);
    topo.link_by_pair_.emplace(key, id);
    topo.ases_[a].links.push_back(id);
    topo.ases_[b].links.push_back(id);
  };

  // Tier-1 clique (stable across epochs).
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      add_peer(tier1[i], tier1[j], /*in_2011=*/true);
    }
  }

  const auto thinned = [&](double mean2011, double mean2016) {
    return mean2016 > 0.0 && rng.chance(mean2011 / mean2016);
  };

  // Large transits peer among themselves.
  for (AsId id : large) {
    const int count = poisson(rng, params_.peers_large_transit_2016 / 2.0);
    for (int i = 0; i < count; ++i) {
      add_peer(id, rng.pick(large),
               thinned(params_.peers_large_transit_2011,
                       params_.peers_large_transit_2016));
    }
  }

  // Regional transits peer regionally and upward.
  for (AsId id : regional) {
    const int count = poisson(rng, params_.peers_regional_2016 / 2.0);
    for (int i = 0; i < count; ++i) {
      const auto& pool =
          (rng.chance(0.7) || large.empty()) ? regional : large;
      if (pool.empty()) continue;
      add_peer(id, rng.pick(pool),
               thinned(params_.peers_regional_2011,
                       params_.peers_regional_2016));
    }
  }

  // Content stubs peer into the transit fabric (the "flattening").
  for (AsId id = 0; id < topo.ases_.size(); ++id) {
    const AsInfo& as = topo.ases_[id];
    if (as.type != AsType::kContent || as.tier != AsTier::kStub) continue;
    const int count = poisson(rng, params_.peers_content_2016);
    for (int i = 0; i < count; ++i) {
      const double roll = rng.next_double();
      const std::vector<AsId>* pool = &regional;
      if (roll < 0.5 && !colo.empty()) {
        pool = &colo;
      } else if (roll < 0.7 && !large.empty()) {
        pool = &large;
      }
      if (pool->empty()) continue;
      add_peer(id, rng.pick(*pool),
               thinned(params_.peers_content_2011,
                       params_.peers_content_2016));
    }
  }

  // Colo-present ASes pick up extra IXP peers (2016 only).
  for (AsId id : colo) {
    const int count = poisson(rng, params_.colo_extra_peers_2016);
    for (int i = 0; i < count; ++i) {
      const auto& pool = (rng.chance(0.5) && colo.size() > 1) ? colo : regional;
      if (pool.empty()) continue;
      add_peer(id, rng.pick(pool), /*in_2011=*/false);
    }
  }

  // Mega colos (interconnection hubs) peer with most of the regional
  // fabric and with every large transit by 2016.
  for (AsId id : mega_colos_) {
    for (AsId partner : large) {
      add_peer(id, partner, /*in_2011=*/rng.chance(0.08));
    }
    for (AsId partner : regional) {
      if (topo.ases_[partner].depth != 3) continue;  // hubs meet the fabric
      if (!rng.chance(params_.mega_colo_regional_peer_fraction_2016)) {
        continue;
      }
      const bool in_2011 =
          rng.chance(params_.mega_colo_regional_peer_fraction_2011 /
                     std::max(params_.mega_colo_regional_peer_fraction_2016,
                              1e-9));
      add_peer(id, partner, in_2011);
    }
    for (AsId partner : colo) add_peer(id, partner, /*in_2011=*/false);
  }

  // Clouds peer very broadly by 2016; the breadth differs per provider
  // (Google's footprint in the paper dwarfs EC2's and Softlayer's).
  std::size_t cloud_index = 0;
  for (AsId id = 0; id < topo.ases_.size(); ++id) {
    if (!topo.ases_[id].cloud) continue;
    const double fraction =
        params_.cloud_peer_fraction_2016[std::min<std::size_t>(
            cloud_index, params_.cloud_peer_fraction_2016.size() - 1)];
    ++cloud_index;
    for (AsId partner : transit_all) {
      if (!rng.chance(fraction)) continue;
      const bool in_2011 = rng.chance(params_.cloud_peer_fraction_2011 /
                                      std::max(fraction, 1e-9));
      add_peer(id, partner, in_2011);
    }
  }
}

void Generator::build_routers(Topology& topo, BuildPlan& plan,
                              AllocState& alloc) {
  topo.assert_mutable();
  auto new_router = [&](AsId as, bool border) {
    return plan.add_router(topo, as, border, alloc.infra_addr(topo, as));
  };

  auto add_interface = [&](RouterId id) {
    const net::IPv4Address addr =
        alloc.infra_addr(topo, topo.routers_[id].as_id);
    plan.interfaces.emplace_back(id, addr);
    return addr;
  };

  // Core routers.
  for (AsId as = 0; as < topo.ases_.size(); ++as) {
    const int cores = params_.core_routers[tier_index(topo.ases_[as].tier)];
    for (int i = 0; i < cores; ++i) {
      const RouterId id = new_router(as, /*border=*/false);
      topo.ases_[as].core.push_back(id);
      for (int k = 0; k < params_.core_interfaces; ++k) add_interface(id);
    }
  }

  // Border routers: stubs reuse their single core router; transit ASes
  // terminate each inter-AS link on its own border router, so crossing a
  // transit AS always enters and leaves through distinct devices (as real
  // backbone POPs do).
  auto border_for = [&](AsId as) -> RouterId {
    AsInfo& info = topo.ases_[as];
    if (info.tier == AsTier::kStub) {
      const RouterId id = info.core.front();
      topo.routers_[id].is_border = true;
      return id;
    }
    return new_router(as, /*border=*/true);
  };

  for (LinkId link_id = 0; link_id < topo.links_.size(); ++link_id) {
    AsLink& link = topo.links_[link_id];
    link.router_a = border_for(link.a);
    link.router_b = border_for(link.b);
    link.addr_a = add_interface(link.router_a);
    link.addr_b = add_interface(link.router_b);
  }
}

void Generator::build_destinations(Topology& topo, BuildPlan& plan,
                                   AllocState& alloc, util::Rng& rng) {
  topo.assert_mutable();
  auto new_chain_router = [&](AsId as) {
    const RouterId id = plan.add_router(topo, as, /*border=*/false,
                                        alloc.infra_addr(topo, as));
    // One downstream-facing interface besides the loopback.
    plan.interfaces.emplace_back(id, alloc.infra_addr(topo, as));
    return id;
  };

  // Per-AS open access router (chains are shared by up to 32 prefixes).
  struct AccessSlot {
    RouterId access = kNoRouter;
    int served = 0;
  };
  std::vector<AccessSlot> open_access(topo.ases_.size());

  auto access_router_for = [&](AsId as) -> RouterId {
    AccessSlot& slot = open_access[as];
    if (slot.access != kNoRouter && slot.served < 32) {
      ++slot.served;
      return slot.access;
    }
    // Build a fresh chain: core -> aggregation* -> access.
    const AsInfo& info = topo.ases_[as];
    std::vector<RouterId> chain;
    chain.push_back(
        info.core[rng.next_below(info.core.size())]);
    // Metro/last-mile aggregation depth is strongly bimodal in practice:
    // many prefixes terminate right at the core POP, while consumer
    // access networks hang several aggregation stages below it.
    // Consumer access networks (transit/access ASes) run deeper
    // aggregation trees than enterprise or content stubs.
    static const std::vector<double> kAccessWeights{0.30, 0.25, 0.22, 0.14,
                                                    0.09};
    static const std::vector<double> kStubWeights{0.50, 0.30, 0.14, 0.06};
    const bool consumer = info.type == AsType::kTransitAccess;
    const int extra = static_cast<int>(
        rng.pick_weighted(consumer ? kAccessWeights : kStubWeights));
    for (int i = 0; i < extra; ++i) chain.push_back(new_chain_router(as));
    const RouterId access = new_chain_router(as);
    chain.push_back(access);
    topo.access_chain_.emplace(access, std::move(chain));
    slot.access = access;
    slot.served = 1;
    return access;
  };

  for (AsId as = 0; as < topo.ases_.size(); ++as) {
    AsInfo& info = topo.ases_[as];
    const double mean =
        params_.prefixes_per_as[static_cast<std::size_t>(info.type)];
    const int count =
        shifted_geometric(rng, mean, params_.max_prefixes_per_as);
    for (int i = 0; i < count; ++i) {
      const net::Prefix block = topo.alloc_block(as);
      const RouterId access = access_router_for(as);
      int aliases = 0;
      if (rng.chance(params_.host_alias_fraction)) {
        aliases = static_cast<int>(rng.next_in(1, params_.max_host_aliases));
      }
      const HostId host_id =
          add_host(topo, as, access, block.address_at(1), aliases);
      info.hosts.push_back(host_id);
      topo.destinations_.push_back(host_id);
    }
  }
}

void Generator::place_vantage_points(Topology& topo, BuildPlan& plan,
                                     AllocState& alloc, util::Rng& rng) {
  topo.assert_mutable();
  // Attach a VP host to its hosting AS. `campus_depth` is the number of
  // extra routers between the AS core and the machine: M-Lab servers sit
  // in colo racks practically on the transit fabric (0); PlanetLab nodes
  // live deep inside university networks (2).
  auto make_vp_host = [&](AsId as, int campus_depth) -> HostId {
    const AsInfo& info = topo.ases_[as];
    const RouterId core = info.core[rng.next_below(info.core.size())];

    std::vector<RouterId> chain{core};
    for (int i = 0; i < campus_depth; ++i) {
      chain.push_back(plan.add_router(topo, as, /*border=*/false,
                                      alloc.infra_addr(topo, as)));
    }
    const RouterId access = chain.back();
    if (!topo.access_chain_.contains(access)) {
      topo.access_chain_.emplace(access, chain);
    }
    return add_host(topo, as, access, alloc.infra_addr(topo, as),
                    /*aliases=*/0);
  };

  // Site ASes were chosen before link construction (so connectivity could
  // be shaped around them); hand them out in order. The M-Lab list leads
  // with the mega-colo hubs.
  std::vector<AsId> cloud_ases;
  for (AsId id = 0; id < topo.ases_.size(); ++id) {
    if (topo.ases_[id].cloud) cloud_ases.push_back(id);
  }
  std::vector<AsId> mlab_pool(mlab_site_ases_.rbegin(),
                              mlab_site_ases_.rend());
  std::vector<AsId> plab_pool(plab_site_ases_.rbegin(),
                              plab_site_ases_.rend());

  auto take = [](std::vector<AsId>& pool, std::size_t count) {
    std::vector<AsId> out;
    while (out.size() < count && !pool.empty()) {
      out.push_back(pool.back());
      pool.pop_back();
    }
    return out;
  };

  char name[32];
  // M-Lab: 2016 sites first (the leading `common` ones also exist in 2011),
  // then 2011-only sites.
  const auto mlab_2016 = take(
      mlab_pool, static_cast<std::size_t>(params_.mlab_sites_2016));
  for (std::size_t i = 0; i < mlab_2016.size(); ++i) {
    VantagePoint vp;
    vp.host = make_vp_host(mlab_2016[i], /*campus_depth=*/0);
    vp.platform = Platform::kMLab;
    std::snprintf(name, sizeof(name), "mlab-%03zu", i + 1);
    vp.site = name;
    vp.exists_in_2016 = true;
    vp.exists_in_2011 =
        i < static_cast<std::size_t>(params_.mlab_common_sites);
    topo.vantage_points_.push_back(std::move(vp));
  }
  const std::size_t mlab_2011_only = static_cast<std::size_t>(
      std::max(0, params_.mlab_sites_2011 - params_.mlab_common_sites));
  const auto mlab_old = take(mlab_pool, mlab_2011_only);
  for (std::size_t i = 0; i < mlab_old.size(); ++i) {
    VantagePoint vp;
    vp.host = make_vp_host(mlab_old[i], /*campus_depth=*/0);
    vp.platform = Platform::kMLab;
    std::snprintf(name, sizeof(name), "mlab-old-%03zu", i + 1);
    vp.site = name;
    vp.exists_in_2016 = false;
    vp.exists_in_2011 = true;
    topo.vantage_points_.push_back(std::move(vp));
  }

  // PlanetLab, same pattern.
  const auto plab_2016 = take(
      plab_pool, static_cast<std::size_t>(params_.planetlab_sites_2016));
  for (std::size_t i = 0; i < plab_2016.size(); ++i) {
    VantagePoint vp;
    const int depth_roll = static_cast<int>(rng.next_below(5));
    vp.host = make_vp_host(plab_2016[i],
                           /*campus_depth=*/depth_roll < 2 ? 0
                                            : depth_roll < 4 ? 1 : 2);
    vp.platform = Platform::kPlanetLab;
    std::snprintf(name, sizeof(name), "plab-%03zu", i + 1);
    vp.site = name;
    vp.exists_in_2016 = true;
    vp.exists_in_2011 =
        i < static_cast<std::size_t>(params_.planetlab_common_sites);
    topo.vantage_points_.push_back(std::move(vp));
  }
  const std::size_t plab_2011_only = static_cast<std::size_t>(std::max(
      0, params_.planetlab_sites_2011 - params_.planetlab_common_sites));
  const auto plab_old = take(plab_pool, plab_2011_only);
  for (std::size_t i = 0; i < plab_old.size(); ++i) {
    VantagePoint vp;
    const int depth_roll = static_cast<int>(rng.next_below(5));
    vp.host = make_vp_host(plab_old[i],
                           /*campus_depth=*/depth_roll < 2 ? 0
                                            : depth_roll < 4 ? 1 : 2);
    vp.platform = Platform::kPlanetLab;
    std::snprintf(name, sizeof(name), "plab-old-%03zu", i + 1);
    vp.site = name;
    vp.exists_in_2016 = false;
    vp.exists_in_2011 = true;
    topo.vantage_points_.push_back(std::move(vp));
  }

  // The single probe host used for the plain-ping study (USC-like).
  if (!plab_pool.empty()) {
    topo.probe_host_ = make_vp_host(plab_pool.back(), /*campus_depth=*/1);
  } else if (!topo.vantage_points_.empty()) {
    topo.probe_host_ = topo.vantage_points_.front().host;
  }

  // Cloud providers.
  static constexpr const char* kCloudNames[] = {"gce", "ec2", "softlayer"};
  for (std::size_t i = 0; i < cloud_ases.size(); ++i) {
    CloudProvider cloud;
    cloud.name = i < 3 ? kCloudNames[i] : ("cloud-" + std::to_string(i));
    cloud.as_id = cloud_ases[i];
    cloud.probe_host = make_vp_host(cloud_ases[i], /*campus_depth=*/0);
    topo.clouds_.push_back(std::move(cloud));
  }
}

std::shared_ptr<const Topology> generate_paper_topology(std::uint64_t seed) {
  TopologyParams params = TopologyParams::paper_scale();
  params.seed = seed;
  return Generator{params}.generate();
}

std::shared_ptr<const Topology> generate_test_topology(std::uint64_t seed) {
  TopologyParams params = TopologyParams::test_scale();
  params.seed = seed;
  return Generator{params}.generate();
}

}  // namespace rr::topo
