#include "deploy/multicolo.hpp"

namespace tsn::deploy {

MultiColoDeployment::MultiColoDeployment(MultiColoConfig config)
    : Deployment(config.apps), colo_config_(config) {
  // Addressing: 10.0/16 is the exchange colo, 10.1+/16 the firm's racks.
  auto address = [](std::size_t rack, std::size_t index) {
    return net::Ipv4Addr{10, static_cast<std::uint8_t>(rack), 0,
                         static_cast<std::uint8_t>(index + 1)};
  };
  l2::CommoditySwitchConfig sw_config;
  sw_config.port_count = 40;
  exchange_switch_ =
      std::make_unique<l2::CommoditySwitch>(engine_, "colo-exch-sw", sw_config);
  firm_switch_ = std::make_unique<l2::CommoditySwitch>(engine_, "colo-firm-sw", sw_config);

  // WAN circuit on port 0 of both switches.
  const auto wan_link = wan::wan_link_config(colo_config_.exchange_colo,
                                             colo_config_.firm_colo, colo_config_.wan_tech,
                                             colo_config_.raining);
  fabric_.connect(*exchange_switch_, 0, *firm_switch_, 0, wan_link);
  // The firm side relays IGMP joins toward the exchange colo.
  firm_switch_->set_router_port(0, true);
  // Routes across the WAN.
  exchange_switch_->add_route(net::Ipv4Addr{10, 1, 0, 0}, 8, 0);  // everything firmward
  firm_switch_->add_route(net::Ipv4Addr{10, 0, 0, 0}, 16, 0);     // exchange subnet

  build_apps(address);

  // Wiring: exchange NICs in colo A; the firm's stack in colo B.
  net::LinkConfig access;  // 10 GbE intra-colo defaults
  net::PortId exch_port = 1;
  auto attach_exchange_side = [&](net::Nic& nic) {
    fabric_.connect(*exchange_switch_, exch_port, nic, 0, access);
    exchange_switch_->bind_host(nic.ip(), nic.mac(), exch_port);
    ++exch_port;
  };
  net::PortId firm_port = 1;
  auto attach_firm_side = [&](net::Nic& nic) {
    fabric_.connect(*firm_switch_, firm_port, nic, 0, access);
    firm_switch_->bind_host(nic.ip(), nic.mac(), firm_port);
    ++firm_port;
  };
  attach_exchange_side(exchange_->feed_nic());
  attach_exchange_side(exchange_->order_nic());
  attach_firm_side(normalizer_->in_nic());
  attach_firm_side(normalizer_->out_nic());
  for (auto& strategy : strategies_) {
    attach_firm_side(strategy->md_nic());
    attach_firm_side(strategy->order_nic());
  }
  attach_firm_side(gateway_->client_nic());
  attach_firm_side(gateway_->upstream_nic());
}

}  // namespace tsn::deploy
