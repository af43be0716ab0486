#include "src/scenario/app_traffic.h"

#include <utility>

#include "src/util/logging.h"

namespace juggler {

AppHarness::AppHarness(const AppWorkloadOptions& options, const AppHarnessWiring& wiring,
                       uint64_t seed)
    : opt_(options), w_(wiring), auditor_(wiring.name + "/app") {
  JUG_CHECK(opt_.enabled());
  JUG_CHECK(opt_.sessions >= 1);
  JUG_CHECK(w_.a != nullptr && w_.b != nullptr);
  JUG_CHECK(w_.a_loop != nullptr && w_.b_loop != nullptr);
  JUG_CHECK(w_.log != nullptr);

  const bool on_b = client_on_b();
  for (uint32_t i = 0; i < opt_.sessions; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->pair = ConnectHosts(w_.a, w_.b, static_cast<uint16_t>(1000 + i),
                              static_cast<uint16_t>(2000 + i));

    // The client->server channel rides whichever endpoint the client host
    // owns; for rpc/incast that is B's (so the big responses come back over
    // the faulted A->B path), for bulk/replication it is A's (so the chunks
    // themselves take the faulted path).
    TcpEndpoint* client_ep = on_b ? conn->pair.b_to_a : conn->pair.a_to_b;
    TcpEndpoint* server_ep = on_b ? conn->pair.a_to_b : conn->pair.b_to_a;
    conn->c2s = std::make_unique<FrameChannel>(client_ep);
    conn->s2c = std::make_unique<FrameChannel>(server_ep);

    const std::string prefix = w_.name + "/conn" + std::to_string(i);
    // Byte oracles, one per direction. The A-side checker writes the
    // harness-private log, merged into the shared one at Finish().
    conn->check_at_a = std::make_unique<StreamIntegrityChecker>(prefix + "/at_a", &a_side_log_);
    conn->check_at_b = std::make_unique<StreamIntegrityChecker>(prefix + "/at_b", w_.log);

    // Deliveries at host A (endpoint a_to_b's receiver half) pop the channel
    // whose *sender* is b_to_a, and vice versa. set_on_deliver replaces, so
    // multiplex checker + channel by hand.
    FrameChannel* delivered_at_a = on_b ? conn->c2s.get() : conn->s2c.get();
    FrameChannel* delivered_at_b = on_b ? conn->s2c.get() : conn->c2s.get();
    StreamIntegrityChecker* at_a = conn->check_at_a.get();
    StreamIntegrityChecker* at_b = conn->check_at_b.get();
    conn->pair.a_to_b->set_segment_tap([at_a](const Segment& s) { at_a->OnSegment(s); });
    conn->pair.a_to_b->set_on_deliver([at_a, delivered_at_a](uint64_t total) {
      at_a->OnDeliverTotal(total);
      delivered_at_a->OnDeliverTotal(total);
    });
    conn->pair.b_to_a->set_segment_tap([at_b](const Segment& s) { at_b->OnSegment(s); });
    conn->pair.b_to_a->set_on_deliver([at_b, delivered_at_b](uint64_t total) {
      at_b->OnDeliverTotal(total);
      delivered_at_b->OnDeliverTotal(total);
    });

    EventLoop* client_loop = on_b ? w_.b_loop : w_.a_loop;
    EventLoop* server_loop = on_b ? w_.a_loop : w_.b_loop;
    FlightRecorder* client_rec = on_b ? w_.b_rec : w_.a_rec;
    FlightRecorder* server_rec = on_b ? w_.a_rec : w_.b_rec;

    conn->server = std::make_unique<AppServer>(opt_, conn->c2s.get(), conn->s2c.get(), &auditor_,
                                               server_rec, server_loop->now_ptr());
    const uint64_t session_seed = seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
    conn->client = std::make_unique<AppClientSession>(client_loop, opt_, i, conn->c2s.get(),
                                                      &auditor_, client_rec, session_seed);
    AppClientSession* client = conn->client.get();
    conn->s2c->set_on_frame([client](const FrameHeader& h) { client->OnResponseFrame(h); });
    if (opt_.kind == AppWorkloadKind::kReplication) {
      client->set_on_chunk_done(
          [this](uint64_t chunk, bool ok) { OnReplicationChunkDone(chunk, ok); });
    }
    conns_.push_back(std::move(conn));
  }
}

void AppHarness::Start() {
  for (auto& conn : conns_) {
    conn->client->Start();
  }
}

bool AppHarness::Done() const {
  for (const auto& conn : conns_) {
    if (!conn->client->Done()) {
      return false;
    }
  }
  return true;
}

void AppHarness::OnReplicationChunkDone(uint64_t chunk, bool ok) {
  // All replica clients live on the same host thread, so plain state is
  // safe. A failed chunk on any replica degrades the whole group: no
  // replica issues further chunks (already-issued requests still finish).
  if (finished_) {
    return;
  }
  if (!ok) {
    for (auto& conn : conns_) {
      conn->client->AbortRemaining();
    }
    return;
  }
  const uint32_t acks = ++chunk_acks_[chunk];
  if (acks == opt_.sessions) {
    for (auto& conn : conns_) {
      conn->client->ReleaseChunk(chunk);
    }
  }
}

void AppHarness::Finish() {
  JUG_CHECK(!finished_);
  finished_ = true;
  for (auto& conn : conns_) {
    conn->client->ForceFinish();
  }
  auditor_.FinalCheck(w_.log);
  for (auto& conn : conns_) {
    // Expected byte totals are workload-dependent (retries inflate them), so
    // the end-of-run byte oracle is coverage-shaped: whatever TCP delivered
    // must have been surfaced by GRO as one contiguous gap-free range.
    conn->check_at_a->set_expected_bytes(conn->pair.a_to_b->bytes_delivered());
    conn->check_at_a->FinalCheck();
    conn->check_at_b->set_expected_bytes(conn->pair.b_to_a->bytes_delivered());
    conn->check_at_b->FinalCheck();
  }
  w_.log->MergeFrom(a_side_log_);
}

bool AppHarness::CompletedCleanly() const {
  return client_totals().forced_terminal == 0;
}

AppStats AppHarness::client_totals() const {
  AppStats total;
  for (const auto& conn : conns_) {
    total.MergeFrom(conn->client->stats());
  }
  return total;
}

AppStats AppHarness::server_totals() const {
  AppStats total;
  for (const auto& conn : conns_) {
    total.MergeFrom(conn->server->stats());
  }
  return total;
}

AppStats AppHarness::totals() const {
  AppStats total = client_totals();
  total.MergeFrom(server_totals());
  return total;
}

uint64_t AppHarness::frames_delivered() const {
  uint64_t total = 0;
  for (const auto& conn : conns_) {
    total += conn->c2s->frames_delivered() + conn->s2c->frames_delivered();
  }
  return total;
}

void AppHarness::PublishMetrics(MetricsRegistry* registry) const {
  PublishAppStats(client_totals(), "client", registry);
  PublishAppStats(server_totals(), "server", registry);
  for (size_t i = 0; i < conns_.size(); ++i) {
    const std::string prefix = "conn" + std::to_string(i);
    conns_[i]->pair.a_to_b->PublishStats(prefix + "/a_to_b", registry);
    conns_[i]->pair.b_to_a->PublishStats(prefix + "/b_to_a", registry);
  }
}

}  // namespace juggler
