#include "src/net/switch.h"

#include <algorithm>
#include <memory>

#include "src/util/logging.h"

namespace juggler {

Switch::Route& Switch::FindRoute(uint32_t dst_ip) {
  const size_t mask = routes_.size() - 1;
  for (size_t i = RouteHome(dst_ip);; i = (i + 1) & mask) {
    Route& r = routes_[i];
    if (r.port == nullptr || r.dst_ip == dst_ip) {
      return r;
    }
  }
}

void Switch::AddRoute(uint32_t dst_ip, PacketSink* port) {
  JUG_CHECK(port != nullptr);
  if ((num_routes_ + 1) * 4 > routes_.size()) {
    std::vector<Route> old(std::max<size_t>(8, routes_.size() * 2));
    old.swap(routes_);
    route_shift_ = 64 - __builtin_ctzll(routes_.size());
    for (const Route& r : old) {
      if (r.port != nullptr) {
        FindRoute(r.dst_ip) = r;
      }
    }
  }
  Route& r = FindRoute(dst_ip);
  if (r.port == nullptr) {
    ++num_routes_;
  }
  r = Route{dst_ip, port};
}

void Switch::AddUplink(PacketSink* port, const Link* link) {
  uplinks_.push_back(port);
  uplink_links_.push_back(link);
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (char c : name_) {
    seed = seed * 131 + static_cast<unsigned char>(c);
  }
  balancer_ = std::make_unique<LoadBalancer>(uplink_policy_, uplinks_.size(), seed);
}

void Switch::Accept(PacketPtr packet) {
  if (!routes_.empty()) {
    PacketSink* port = FindRoute(packet->flow.dst_ip).port;
    if (port != nullptr) {
      ++forwarded_;
      port->Accept(std::move(packet));
      return;
    }
  }
  if (!uplinks_.empty()) {
    ++forwarded_;
    size_t path;
    if (uplink_policy_ == LbPolicy::kFlowlet) {
      // An empty depth list (some uplink has no probe) means random choice.
      uplink_depths_.clear();
      for (const Link* link : uplink_links_) {
        if (link == nullptr) {
          uplink_depths_.clear();
          break;
        }
        uplink_depths_.push_back(link->queued_bytes());
      }
      path = balancer_->PickFlowletPath(*packet, uplink_depths_);
    } else {
      path = balancer_->PickPath(*packet);
    }
    uplinks_[path]->Accept(std::move(packet));
    return;
  }
  ++no_route_;
  JUG_WARN("switch %s: no route for dst %u, dropping", name_.c_str(), packet->flow.dst_ip);
}

}  // namespace juggler
