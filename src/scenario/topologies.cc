#include "src/scenario/topologies.h"

#include <string>

namespace juggler {
namespace {

// Host IPs: 10.T.0.H encodes (ToR, host index).
uint32_t HostIp(uint32_t tor, uint32_t index) {
  return (10u << 24) | (tor << 16) | (index + 1);
}

}  // namespace

NetFpgaTestbed BuildNetFpga(SimWorld* world, NetFpgaOptions options) {
  NetFpgaTestbed t;
  EventLoop* loop = &world->loop;

  options.sender.ip = HostIp(0, 0);
  options.sender.name = "sender";
  options.receiver.ip = HostIp(1, 0);
  options.receiver.name = "receiver";

  LinkConfig host_link;
  host_link.rate_bps = options.link_rate_bps;
  host_link.propagation_delay = options.base_delay;
  host_link.queue_limit_bytes = options.host_link_queue_bytes;

  // Build back-to-front. The reverse (ACK) path ends at the sender, which
  // does not exist yet — latch it.
  LatchSink* to_sender = t.fabric.AddLatch();
  Link* rev_link = t.fabric.AddLink(loop, "rev", host_link, to_sender);
  t.rev_link = rev_link;
  t.receiver = t.fabric.AddHost(world, options.receiver, rev_link);

  // Forward pipeline: fwd_link -> reorder -> (drop) -> (fault) -> receiver
  // NIC. The fault stage sits nearest the NIC so its corruptions and delay
  // spikes hit after the topology's own reordering, like a last-hop fault.
  PacketSink* into_receiver = t.receiver->wire_in();
  if (!options.faults.empty()) {
    t.fault = t.fabric.AddFault(loop, "fault", options.faults, options.seed * 6151 + 29,
                                into_receiver);
    into_receiver = t.fault;
  }
  if (options.drop_prob > 0.0) {
    t.fabric.drops.push_back(
        std::make_unique<DropStage>(options.drop_prob, options.seed * 7919 + 13, into_receiver));
    t.drop = t.fabric.drops.back().get();
    into_receiver = t.drop;
  }
  t.fabric.reorders.push_back(std::make_unique<ReorderStage>(
      loop, std::vector<TimeNs>{0, options.reorder_delay}, options.seed, into_receiver));
  t.reorder = t.fabric.reorders.back().get();

  Link* fwd_link = t.fabric.AddLink(loop, "fwd", host_link, t.reorder);
  t.fwd_link = fwd_link;
  t.sender = t.fabric.AddHost(world, options.sender, fwd_link);
  to_sender->set_target(t.sender->wire_in());
  return t;
}

ClosTestbed BuildClos(SimWorld* world, ClosOptions options) {
  ClosTestbed t;
  EventLoop* loop = &world->loop;

  t.tor_a = t.fabric.AddSwitch("tor_a", options.lb);
  t.tor_b = t.fabric.AddSwitch("tor_b", options.lb);
  std::vector<Switch*> spines;
  for (size_t s = 0; s < options.num_spines; ++s) {
    // Spines route deterministically by destination ToR; no balancing.
    spines.push_back(t.fabric.AddSwitch("spine_" + std::to_string(s), LbPolicy::kEcmp));
  }

  LinkConfig fabric_link;
  fabric_link.rate_bps = options.fabric_link_rate_bps;
  fabric_link.propagation_delay = options.link_prop;
  fabric_link.queue_limit_bytes = options.switch_buffer_bytes;
  fabric_link.red = options.red;
  fabric_link.red_seed = options.seed * 977 + 5;
  fabric_link.ecn = options.ecn;
  fabric_link.ecn_threshold_fill = options.ecn_threshold_fill;

  // ToR uplinks and spine downlinks.
  std::vector<Link*> spine_to_a;
  std::vector<Link*> spine_to_b;
  for (size_t s = 0; s < options.num_spines; ++s) {
    Link* up_a = t.fabric.AddLink(loop, "torA->spine" + std::to_string(s), fabric_link, spines[s]);
    Link* up_b = t.fabric.AddLink(loop, "torB->spine" + std::to_string(s), fabric_link, spines[s]);
    t.tor_a->AddUplink(up_a, up_a);
    t.tor_b->AddUplink(up_b, up_b);
    t.tor_a_uplinks.push_back(up_a);
    t.tor_b_uplinks.push_back(up_b);
    spine_to_a.push_back(
        t.fabric.AddLink(loop, "spine" + std::to_string(s) + "->torA", fabric_link, t.tor_a));
    spine_to_b.push_back(
        t.fabric.AddLink(loop, "spine" + std::to_string(s) + "->torB", fabric_link, t.tor_b));
  }

  // Host->ToR "links" model the NIC + qdisc: the queue backs up under TCP
  // backpressure, shedding only at a bound far beyond any congestion-window
  // footprint. ToR->host downlinks are switch ports with drop-tail buffers.
  LinkConfig uplink_cfg;
  uplink_cfg.rate_bps = options.host_link_rate_bps;
  uplink_cfg.propagation_delay = options.link_prop;
  uplink_cfg.queue_limit_bytes = options.host_uplink_queue_bytes;
  LinkConfig downlink_cfg = uplink_cfg;
  downlink_cfg.queue_limit_bytes = options.switch_buffer_bytes;
  downlink_cfg.red = options.red;
  downlink_cfg.red_seed = options.seed * 613 + 3;
  downlink_cfg.ecn = options.ecn;
  downlink_cfg.ecn_threshold_fill = options.ecn_threshold_fill;

  auto build_side = [&](Switch* tor, uint32_t tor_id, std::vector<Host*>* out,
                        const std::vector<Link*>& spine_down) {
    for (size_t h = 0; h < options.hosts_per_tor; ++h) {
      HostConfig hc = options.host_template;
      hc.ip = HostIp(tor_id, static_cast<uint32_t>(h));
      hc.name = std::string(tor_id == 0 ? "srv" : "cli") + std::to_string(h);
      Link* uplink = t.fabric.AddLink(
          loop, hc.name + "->" + tor->name(), uplink_cfg, tor);
      Host* host = t.fabric.AddHost(world, hc, uplink);
      Link* downlink = t.fabric.AddLink(
          loop, tor->name() + "->" + hc.name, downlink_cfg, host->wire_in());
      tor->AddRoute(hc.ip, downlink);
      for (size_t s = 0; s < spine_down.size(); ++s) {
        spines[s]->AddRoute(hc.ip, spine_down[s]);
      }
      out->push_back(host);
    }
  };
  build_side(t.tor_a, 0, &t.left_hosts, spine_to_a);
  build_side(t.tor_b, 1, &t.right_hosts, spine_to_b);
  return t;
}

DumbbellTestbed BuildDumbbell(SimWorld* world, DumbbellOptions options) {
  DumbbellTestbed t;
  EventLoop* loop = &world->loop;

  Switch* tor_l = t.fabric.AddSwitch("tor_l", LbPolicy::kEcmp);
  Switch* s2 = t.fabric.AddSwitch("s2", LbPolicy::kEcmp);
  Switch* tor_r = t.fabric.AddSwitch("tor_r", LbPolicy::kEcmp);

  // All inter-switch links carry two strict-priority queues (Figure 17).
  LinkConfig prio_link;
  prio_link.rate_bps = options.link_rate_bps;
  prio_link.propagation_delay = options.link_prop;
  prio_link.queue_limit_bytes = options.switch_buffer_bytes;
  prio_link.num_priorities = 2;
  prio_link.red = options.red;
  // Deep-buffer ports run gentle RED: enough early dropping to keep the
  // competing flows desynchronized and fair, but a low ceiling so a flow
  // mixing a few percent of its packets into the congested low-priority
  // queue is not bled dry by drop probability.
  prio_link.red_min_fill = 0.3;
  prio_link.red_max_fill = 0.95;
  prio_link.red_pmax = 0.03;
  prio_link.red_seed = options.seed * 389 + 7;

  Link* l_to_s2 = t.fabric.AddLink(loop, "torL->s2", prio_link, s2);
  Link* s2_to_r = t.fabric.AddLink(loop, "s2->torR", prio_link, tor_r);
  Link* r_to_s2 = t.fabric.AddLink(loop, "torR->s2", prio_link, s2);
  Link* s2_to_l = t.fabric.AddLink(loop, "s2->torL", prio_link, tor_l);

  // NIC/qdisc uplinks shed only at a deep explicit bound; switch downlinks
  // are drop-tail at the switch buffer size.
  LinkConfig uplink_cfg;
  uplink_cfg.rate_bps = options.link_rate_bps;
  uplink_cfg.propagation_delay = options.link_prop;
  uplink_cfg.queue_limit_bytes = options.host_uplink_queue_bytes;
  LinkConfig downlink_cfg = uplink_cfg;
  downlink_cfg.queue_limit_bytes = options.switch_buffer_bytes;
  downlink_cfg.red = options.red;
  downlink_cfg.red_seed = options.seed * 241 + 9;

  auto add_host = [&](Switch* tor, uint32_t tor_id, uint32_t index, const char* name) {
    HostConfig hc = options.host_template;
    hc.ip = HostIp(tor_id, index);
    hc.name = name;
    Link* uplink = t.fabric.AddLink(loop, hc.name + "->" + tor->name(), uplink_cfg, tor);
    Host* host = t.fabric.AddHost(world, hc, uplink);
    Link* downlink =
        t.fabric.AddLink(loop, tor->name() + "->" + hc.name, downlink_cfg, host->wire_in());
    tor->AddRoute(hc.ip, downlink);
    return host;
  };

  t.sender1 = add_host(tor_l, 0, 0, "sender1");
  t.sender2 = add_host(tor_l, 0, 1, "sender2");
  t.receiver1 = add_host(tor_r, 1, 0, "receiver1");
  t.receiver2 = add_host(tor_r, 1, 1, "receiver2");

  // Cross-ToR routing through s2, both directions.
  for (Host* h : {t.receiver1, t.receiver2}) {
    tor_l->AddRoute(h->ip(), l_to_s2);
    s2->AddRoute(h->ip(), s2_to_r);
  }
  for (Host* h : {t.sender1, t.sender2}) {
    tor_r->AddRoute(h->ip(), r_to_s2);
    s2->AddRoute(h->ip(), s2_to_l);
  }
  return t;
}

}  // namespace juggler
