#include "measure/testbed.h"

#include "util/log.h"

namespace rr::measure {

Testbed::Testbed(const TestbedConfig& config) : config_(config) {
  topology_ = topo::Generator{config.topo_params}.generate();
  behaviors_ = std::make_shared<sim::Behaviors>(topology_,
                                                config.behavior_params);
  init();
}

Testbed::Testbed(std::shared_ptr<const topo::Topology> topology,
                 std::shared_ptr<const sim::Behaviors> behaviors,
                 const TestbedConfig& config)
    : config_(config),
      topology_(std::move(topology)),
      behaviors_(std::move(behaviors)) {
  init();
}

void Testbed::init() {
  vps_ = topology_->vantage_points_in(config_.epoch);  // view, not a copy

  // Probe sources: this epoch's VPs, the plain-ping probe host and the
  // cloud probe hosts, the only hosts a study on this testbed sends from.
  // Each source costs the oracle a pinned tree and a path per destination,
  // so the other epoch's VPs are left out; a query from one still gets
  // the same path, from a tree computed on demand.
  std::vector<topo::AsId> sources;
  for (const auto* vp : vps_) {
    sources.push_back(topology_->host_at(vp->host).as_id);
  }
  if (topology_->probe_host() != topo::kNoHost) {
    sources.push_back(topology_->host_at(topology_->probe_host()).as_id);
  }
  for (const auto& cloud : topology_->clouds()) {
    sources.push_back(topology_->host_at(cloud.probe_host).as_id);
  }
  oracle_ = std::make_unique<route::RoutingOracle>(
      topology_, config_.epoch, std::move(sources), config_.threads);
  network_ = std::make_unique<sim::Network>(topology_, behaviors_, *oracle_,
                                            config_.net_params);
  util::log_info() << "testbed ready (epoch "
                   << (config_.epoch == topo::Epoch::k2016 ? "2016" : "2011")
                   << ", " << vps_.size() << " VPs)";
}

}  // namespace rr::measure
