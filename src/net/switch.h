// A store-and-forward switch: static routes by destination IP, plus an
// optional default uplink group balanced by an LbPolicy. Output queueing is
// delegated to the Link attached to each port, so congestion, buffer
// build-up and drops happen where they do in a real switch.
//
// Every fabric hop runs one route lookup, so the exact-match table is a
// flat open-addressing array (Fibonacci hash, linear probing, at most a
// quarter full): one multiply and usually one probe, hit or miss.

#ifndef JUGGLER_SRC_NET_SWITCH_H_
#define JUGGLER_SRC_NET_SWITCH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/link.h"
#include "src/net/load_balancer.h"
#include "src/net/packet_sink.h"

namespace juggler {

class Switch : public PacketSink {
 public:
  Switch(std::string name, LbPolicy uplink_policy)
      : name_(std::move(name)), uplink_policy_(uplink_policy) {}

  // Exact-match route: packets to `dst_ip` exit through `port`.
  // Any 32-bit address is a valid key; re-adding an address overwrites it.
  void AddRoute(uint32_t dst_ip, PacketSink* port);

  // Default route: packets with no exact match are balanced across these.
  // Pass `link` when the port is a Link so congestion-aware policies
  // (flowlet) can read its queue occupancy.
  void AddUplink(PacketSink* port, const Link* link = nullptr);

  void Accept(PacketPtr packet) override;

  uint64_t forwarded() const { return forwarded_; }
  uint64_t dropped_no_route() const { return no_route_; }
  const std::string& name() const { return name_; }

 private:
  // A null port marks an empty table entry (routes never point at null).
  struct Route {
    uint32_t dst_ip = 0;
    PacketSink* port = nullptr;
  };

  size_t RouteHome(uint32_t dst_ip) const {
    return static_cast<size_t>((dst_ip * 0x9E3779B97F4A7C15ULL) >> route_shift_);
  }
  // The entry holding `dst_ip`, or the empty entry where it would go.
  Route& FindRoute(uint32_t dst_ip);

  std::string name_;
  LbPolicy uplink_policy_;
  std::vector<Route> routes_;  // power-of-two size; empty until the first route
  int route_shift_ = 64;       // 64 - log2(routes_.size())
  size_t num_routes_ = 0;
  std::vector<PacketSink*> uplinks_;
  std::vector<const Link*> uplink_links_;  // nullable congestion probes
  std::unique_ptr<LoadBalancer> balancer_;
  std::vector<int64_t> uplink_depths_;  // flowlet scratch, reused per packet
  uint64_t forwarded_ = 0;
  uint64_t no_route_ = 0;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_NET_SWITCH_H_
