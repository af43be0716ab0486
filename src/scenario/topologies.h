// Experiment topologies from the paper's evaluation:
//
//   NetFpgaTestbed — Figure 11: two hosts through a switch that hashes each
//                    packet uniformly onto one of two delay lanes (precisely
//                    controlled reordering), with optional random drops.
//   ClosTestbed    — Figure 19: two ToRs, two spines, N hosts per ToR, ToR
//                    uplinks balanced per-flow / per-TSO / per-packet.
//   DumbbellTestbed— Figure 17: two senders and two receivers across a
//                    two-priority 40Gb/s interconnect, for the bandwidth
//                    guarantee experiments.
//
// A SimWorld owns the event loop, packet factory and CPU cost model; a
// Fabric owns every network component so benches keep a single object alive.

#ifndef JUGGLER_SRC_SCENARIO_TOPOLOGIES_H_
#define JUGGLER_SRC_SCENARIO_TOPOLOGIES_H_

#include <memory>
#include <vector>

#include "src/fault/fault_stage.h"
#include "src/net/link.h"
#include "src/net/stages.h"
#include "src/net/switch.h"
#include "src/scenario/host.h"
#include "src/sim/event_loop.h"

namespace juggler {

struct SimWorld {
  EventLoop loop;
  PacketFactory factory;
  CpuCostModel costs;
};

// Owns network components; hosts/switches/links stay valid for its lifetime.
struct Fabric {
  std::vector<std::unique_ptr<Switch>> switches;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::unique_ptr<ReorderStage>> reorders;
  std::vector<std::unique_ptr<DropStage>> drops;
  std::vector<std::unique_ptr<FaultStage>> faults;
  std::vector<std::unique_ptr<LatchSink>> latches;

  LatchSink* AddLatch() {
    latches.push_back(std::make_unique<LatchSink>());
    return latches.back().get();
  }
  FaultStage* AddFault(EventLoop* loop, std::string name, FaultTimeline timeline, uint64_t seed,
                       PacketSink* sink) {
    faults.push_back(std::make_unique<FaultStage>(loop, std::move(name), std::move(timeline),
                                                  seed, sink));
    return faults.back().get();
  }
  Switch* AddSwitch(std::string name, LbPolicy uplink_policy) {
    switches.push_back(std::make_unique<Switch>(std::move(name), uplink_policy));
    return switches.back().get();
  }
  Link* AddLink(EventLoop* loop, std::string name, const LinkConfig& config, PacketSink* sink) {
    links.push_back(std::make_unique<Link>(loop, std::move(name), config, sink));
    return links.back().get();
  }
  Host* AddHost(SimWorld* world, const HostConfig& config, PacketSink* wire_out) {
    hosts.push_back(
        std::make_unique<Host>(&world->loop, &world->factory, &world->costs, config, wire_out));
    return hosts.back().get();
  }
};

// ---------------------------------------------------------------- NetFPGA --

struct NetFpgaOptions {
  int64_t link_rate_bps = 10 * kGbps;
  TimeNs base_delay = Us(5);      // lane 0 delay (fabric latency)
  TimeNs reorder_delay = Us(500);  // lane 1 extra delay: "τ µs reordering"
  double drop_prob = 0.0;          // applied receiver-side, before the NIC
  // Drop-tail bound on both host links. Deep enough (milliseconds at line
  // rate) that normal runs never touch it — TCP's in-flight ceiling is
  // max_cwnd = 3MB — but finite, so overload storms hit a wall instead of
  // an infinitely elastic buffer. <= 0 restores the old unbounded queues
  // (chaos runs flag that as a setup bug when overload faults are active).
  int64_t host_link_queue_bytes = 16'000'000;
  // Fault-injection schedule applied receiver-side, nearest the NIC (after
  // the reorder and legacy drop stages). Empty = no fault stage.
  FaultTimeline faults;
  uint64_t seed = 1;
  HostConfig sender;
  HostConfig receiver;
};

struct NetFpgaTestbed {
  Fabric fabric;
  Host* sender = nullptr;
  Host* receiver = nullptr;
  DropStage* drop = nullptr;
  ReorderStage* reorder = nullptr;
  FaultStage* fault = nullptr;   // set when options.faults is non-empty
  Link* fwd_link = nullptr;      // sender -> receiver data path
  Link* rev_link = nullptr;      // receiver -> sender ACK path
};

NetFpgaTestbed BuildNetFpga(SimWorld* world, NetFpgaOptions options);

// ------------------------------------------------------------------- Clos --

struct ClosOptions {
  size_t hosts_per_tor = 8;
  size_t num_spines = 2;
  int64_t host_link_rate_bps = 40 * kGbps;
  int64_t fabric_link_rate_bps = 40 * kGbps;
  TimeNs link_prop = Us(1);
  int64_t switch_buffer_bytes = 1'000'000;
  LbPolicy lb = LbPolicy::kPerPacket;
  // Host->ToR "NIC + qdisc" uplinks: backs up under TCP backpressure, and
  // only sheds when pushed far beyond any congestion-window footprint.
  int64_t host_uplink_queue_bytes = 16'000'000;
  // Early random drops on switch ports (the ECN/WRED role); keeps competing
  // flows desynchronized and fair.
  bool red = true;
  // CE-mark instead of growing deep queues (pair with TcpConfig::dctcp).
  bool ecn = false;
  double ecn_threshold_fill = 0.1;
  uint64_t seed = 1;
  // Per-host config template; ip/name are assigned by the builder.
  HostConfig host_template;
};

struct ClosTestbed {
  Fabric fabric;
  std::vector<Host*> left_hosts;   // under ToR A ("servers")
  std::vector<Host*> right_hosts;  // under ToR B ("clients")
  Switch* tor_a = nullptr;
  Switch* tor_b = nullptr;
  std::vector<Link*> tor_a_uplinks;
  std::vector<Link*> tor_b_uplinks;
};

ClosTestbed BuildClos(SimWorld* world, ClosOptions options);

// --------------------------------------------------------------- Dumbbell --

struct DumbbellOptions {
  int64_t link_rate_bps = 40 * kGbps;
  TimeNs link_prop = Us(1);
  // Deep-buffer interconnect (the spine-tier chassis switches of §2.2, e.g.
  // Arista 7500 class): the low-priority queue can hold ~400us at 40G, so
  // mixing priorities produces severe reordering.
  int64_t switch_buffer_bytes = 2'000'000;
  // Host->ToR "NIC + qdisc" uplinks (see ClosOptions::host_uplink_queue_bytes).
  int64_t host_uplink_queue_bytes = 16'000'000;
  bool red = true;
  uint64_t seed = 1;
  HostConfig host_template;
};

struct DumbbellTestbed {
  Fabric fabric;
  Host* sender1 = nullptr;    // the flow with the bandwidth guarantee
  Host* sender2 = nullptr;    // the antagonists
  Host* receiver1 = nullptr;
  Host* receiver2 = nullptr;
};

DumbbellTestbed BuildDumbbell(SimWorld* world, DumbbellOptions options);

}  // namespace juggler

#endif  // JUGGLER_SRC_SCENARIO_TOPOLOGIES_H_
