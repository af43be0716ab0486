#include "src/forensics/scenario_spec.h"

#include <utility>

#include "src/fault/fault_json.h"

namespace juggler {
namespace {

// Every key ToJson() can emit; FromJson preserves anything else verbatim
// in `extra` so future fields survive a round trip through this build.
bool IsKnownSpecKey(const std::string& key) {
  static const char* const kKnown[] = {
      "seed",
      "family",
      "transfer_bytes",
      "time_limit_ns",
      "num_windows",
      "link_rate_bps",
      "base_delay_ns",
      "reorder_delay_ns",
      "int_coalesce_ns",
      "inseq_timeout_ns",
      "ofo_timeout_ns",
      "max_flows",
      "use_explicit_faults",
      "faults",
      "use_explicit_flaps",
      "flaps",
      "plant_flush_skew",
      "plant_wedge",
      "rx_driver",
      "plant_corec_wedge",
      "app_kind",
      "app_sessions",
      "app_requests_per_session",
      "app_request_bytes",
      "app_response_bytes",
      "app_chunk_bytes",
      "app_transfer_bytes",
      "app_issue_interval_ns",
      "app_attempt_timeout_ns",
      "app_deadline_ns",
      "app_max_attempts",
      "app_backoff_base_ns",
      "app_backoff_max_ns",
      "app_jitter_pct",
      "plant_stale_token",
      "overload",
      "overload_pool_capacity",
      "overload_ring_capacity",
  };
  for (const char* known : kKnown) {
    if (key == known) {
      return true;
    }
  }
  return false;
}

}  // namespace

ChaosOptions ScenarioSpec::ToChaosOptions() const {
  ChaosOptions opt;
  opt.seed = seed;
  opt.family = family;
  opt.transfer_bytes = transfer_bytes;
  opt.time_limit = time_limit;
  opt.reorder_delay = reorder_delay;
  opt.num_windows = num_windows;
  opt.audit = true;
  opt.link_rate_bps = link_rate_bps;
  opt.base_delay = base_delay;
  opt.int_coalesce = int_coalesce;
  opt.inseq_timeout = inseq_timeout;
  opt.ofo_timeout = ofo_timeout;
  opt.max_flows = static_cast<size_t>(max_flows);
  opt.use_explicit_faults = use_explicit_faults;
  opt.fault_override = faults;
  opt.use_explicit_flaps = use_explicit_flaps;
  opt.flap_override = flaps;
  opt.plant_flush_skew = plant_flush_skew;
  opt.rx_driver = rx_driver;
  // Depth 1: wedge at the very first out-of-order stall the hand-off sees.
  opt.plant_corec_wedge_depth = plant_corec_wedge ? 1 : 0;
  opt.overload.windows = overload_windows;
  opt.overload.pool_capacity = static_cast<size_t>(overload_pool_capacity);
  opt.overload.ring_capacity = static_cast<size_t>(overload_ring_capacity);
  opt.app = app;
  return opt;
}

void ScenarioSpec::Materialize() {
  const ChaosOptions opt = ToChaosOptions();
  if (!use_explicit_faults) {
    faults = DeriveChaosFaults(opt);
    use_explicit_faults = true;
  }
  if (!use_explicit_flaps) {
    flaps = DeriveChaosFlaps(opt);
    use_explicit_flaps = true;
  }
}

size_t ScenarioSpec::TimelineEvents() const {
  const ChaosOptions opt = ToChaosOptions();
  const size_t fault_windows =
      use_explicit_faults ? faults.windows().size() : DeriveChaosFaults(opt).windows().size();
  const size_t flap_windows =
      use_explicit_flaps ? flaps.size() : DeriveChaosFlaps(opt).size();
  return fault_windows + flap_windows + overload_windows.size();
}

Json ScenarioSpec::ToJson() const {
  Json j = Json::Object();
  j.Set("seed", Json::Uint(seed));
  j.Set("family", Json::Str(FaultFamilyName(family)));
  j.Set("transfer_bytes", Json::Uint(transfer_bytes));
  j.Set("time_limit_ns", Json::Int(time_limit));
  j.Set("num_windows", Json::Int(num_windows));
  j.Set("link_rate_bps", Json::Int(link_rate_bps));
  j.Set("base_delay_ns", Json::Int(base_delay));
  j.Set("reorder_delay_ns", Json::Int(reorder_delay));
  j.Set("int_coalesce_ns", Json::Int(int_coalesce));
  j.Set("inseq_timeout_ns", Json::Int(inseq_timeout));
  j.Set("ofo_timeout_ns", Json::Int(ofo_timeout));
  j.Set("max_flows", Json::Uint(max_flows));
  j.Set("use_explicit_faults", Json::Bool(use_explicit_faults));
  if (use_explicit_faults) {
    j.Set("faults", FaultTimelineToJson(faults));
  }
  j.Set("use_explicit_flaps", Json::Bool(use_explicit_flaps));
  if (use_explicit_flaps) {
    j.Set("flaps", FlapWindowsToJson(flaps));
  }
  if (plant_flush_skew) {
    j.Set("plant_flush_skew", Json::Bool(true));
  }
  if (plant_wedge) {
    j.Set("plant_wedge", Json::Bool(true));
  }
  // Driver key only when non-default: pre-COREC specs (and every rss spec)
  // re-serialize byte-identically.
  if (rx_driver != RxDriverKind::kRss) {
    j.Set("rx_driver", Json::Str(RxDriverKindName(rx_driver)));
  }
  if (plant_corec_wedge) {
    j.Set("plant_corec_wedge", Json::Bool(true));
  }
  // App-workload block only when one rides the run: specs written before
  // the app layer existed re-serialize byte-identically.
  if (app.enabled()) {
    j.Set("app_kind", Json::Str(AppWorkloadKindName(app.kind)));
    j.Set("app_sessions", Json::Uint(app.sessions));
    j.Set("app_requests_per_session", Json::Uint(app.requests_per_session));
    j.Set("app_request_bytes", Json::Uint(app.request_bytes));
    j.Set("app_response_bytes", Json::Uint(app.response_bytes));
    j.Set("app_chunk_bytes", Json::Uint(app.chunk_bytes));
    j.Set("app_transfer_bytes", Json::Uint(app.transfer_bytes_per_session));
    j.Set("app_issue_interval_ns", Json::Int(app.issue_interval));
    j.Set("app_attempt_timeout_ns", Json::Int(app.retry.attempt_timeout));
    j.Set("app_deadline_ns", Json::Int(app.retry.deadline));
    j.Set("app_max_attempts", Json::Uint(app.retry.max_attempts));
    j.Set("app_backoff_base_ns", Json::Int(app.retry.backoff_base));
    j.Set("app_backoff_max_ns", Json::Int(app.retry.backoff_max));
    j.Set("app_jitter_pct", Json::Uint(app.retry.jitter_pct));
    if (app.plant_stale_token) {
      j.Set("plant_stale_token", Json::Bool(true));
    }
  }
  // Overload block only when pressure windows ride the run, same contract
  // as the app block: pre-overload specs re-serialize byte-identically.
  if (!overload_windows.empty()) {
    j.Set("overload", OverloadWindowsToJson(overload_windows));
    j.Set("overload_pool_capacity", Json::Uint(overload_pool_capacity));
    j.Set("overload_ring_capacity", Json::Uint(overload_ring_capacity));
  }
  // Unknown members last, in the order the original document carried them.
  // One normalization pass later, re-serialization is a fixed point.
  for (const auto& member : extra.members()) {
    j.Set(member.first, member.second);
  }
  return j;
}

bool ScenarioSpec::FromJson(const Json& json, ScenarioSpec* out, std::string* error) {
  if (!json.is_object()) {
    *error = "spec: not an object";
    return false;
  }
  ScenarioSpec s;
  std::string family_name = FaultFamilyName(s.family);
  int64_t num_windows = s.num_windows;
  if (!json.GetUint("seed", &s.seed) || !json.GetString("family", &family_name) ||
      !json.GetUint("transfer_bytes", &s.transfer_bytes) ||
      !json.GetInt("time_limit_ns", &s.time_limit) || !json.GetInt("num_windows", &num_windows) ||
      !json.GetInt("link_rate_bps", &s.link_rate_bps) ||
      !json.GetInt("base_delay_ns", &s.base_delay) ||
      !json.GetInt("reorder_delay_ns", &s.reorder_delay) ||
      !json.GetInt("int_coalesce_ns", &s.int_coalesce) ||
      !json.GetInt("inseq_timeout_ns", &s.inseq_timeout) ||
      !json.GetInt("ofo_timeout_ns", &s.ofo_timeout) || !json.GetUint("max_flows", &s.max_flows) ||
      !json.GetBool("use_explicit_faults", &s.use_explicit_faults) ||
      !json.GetBool("use_explicit_flaps", &s.use_explicit_flaps) ||
      !json.GetBool("plant_flush_skew", &s.plant_flush_skew) ||
      !json.GetBool("plant_wedge", &s.plant_wedge) ||
      !json.GetBool("plant_corec_wedge", &s.plant_corec_wedge)) {
    *error = "spec: field with wrong type";
    return false;
  }
  if (!ParseFaultFamily(family_name.c_str(), &s.family)) {
    *error = "spec: unknown family \"" + family_name + "\"";
    return false;
  }
  // Receive driver: absent-tolerant (pre-COREC specs carry no key).
  std::string rx_driver_name = RxDriverKindName(s.rx_driver);
  if (!json.GetString("rx_driver", &rx_driver_name)) {
    *error = "spec: rx_driver with wrong type";
    return false;
  }
  if (!ParseRxDriverKind(rx_driver_name, &s.rx_driver)) {
    *error = "spec: unknown rx_driver \"" + rx_driver_name + "\"";
    return false;
  }
  s.num_windows = static_cast<int>(num_windows);
  if (s.transfer_bytes == 0 || s.time_limit <= 0 || s.num_windows < 1 || s.link_rate_bps <= 0 ||
      s.base_delay <= 0 || s.reorder_delay < 0 || s.int_coalesce < 0 || s.inseq_timeout <= 0 ||
      s.ofo_timeout <= 0 || s.max_flows == 0) {
    *error = "spec: parameter out of range";
    return false;
  }
  if (const Json* f = json.Find("faults")) {
    if (!FaultTimelineFromJson(*f, &s.faults, error)) {
      return false;
    }
  }
  if (const Json* f = json.Find("flaps")) {
    if (!FlapWindowsFromJson(*f, &s.flaps, error)) {
      return false;
    }
  }
  // App workload: every field absent-tolerant (pre-app specs carry none).
  std::string app_kind_name = AppWorkloadKindName(s.app.kind);
  uint64_t app_sessions = s.app.sessions;
  uint64_t app_requests = s.app.requests_per_session;
  uint64_t app_max_attempts = s.app.retry.max_attempts;
  uint64_t app_jitter_pct = s.app.retry.jitter_pct;
  if (!json.GetString("app_kind", &app_kind_name) ||
      !json.GetUint("app_sessions", &app_sessions) ||
      !json.GetUint("app_requests_per_session", &app_requests) ||
      !json.GetUint("app_request_bytes", &s.app.request_bytes) ||
      !json.GetUint("app_response_bytes", &s.app.response_bytes) ||
      !json.GetUint("app_chunk_bytes", &s.app.chunk_bytes) ||
      !json.GetUint("app_transfer_bytes", &s.app.transfer_bytes_per_session) ||
      !json.GetInt("app_issue_interval_ns", &s.app.issue_interval) ||
      !json.GetInt("app_attempt_timeout_ns", &s.app.retry.attempt_timeout) ||
      !json.GetInt("app_deadline_ns", &s.app.retry.deadline) ||
      !json.GetUint("app_max_attempts", &app_max_attempts) ||
      !json.GetInt("app_backoff_base_ns", &s.app.retry.backoff_base) ||
      !json.GetInt("app_backoff_max_ns", &s.app.retry.backoff_max) ||
      !json.GetUint("app_jitter_pct", &app_jitter_pct) ||
      !json.GetBool("plant_stale_token", &s.app.plant_stale_token)) {
    *error = "spec: app field with wrong type";
    return false;
  }
  if (!ParseAppWorkloadKind(app_kind_name.c_str(), &s.app.kind)) {
    *error = "spec: unknown app_kind \"" + app_kind_name + "\"";
    return false;
  }
  s.app.sessions = static_cast<uint32_t>(app_sessions);
  s.app.requests_per_session = static_cast<uint32_t>(app_requests);
  s.app.retry.max_attempts = static_cast<uint32_t>(app_max_attempts);
  s.app.retry.jitter_pct = static_cast<uint32_t>(app_jitter_pct);
  if (s.app.enabled()) {
    if (s.app.sessions == 0 || s.app.request_bytes == 0 || s.app.response_bytes == 0 ||
        s.app.chunk_bytes == 0 || s.app.transfer_bytes_per_session == 0 ||
        s.app.issue_interval < 0 || s.app.retry.attempt_timeout <= 0 ||
        s.app.retry.deadline <= 0 || s.app.retry.max_attempts == 0 ||
        s.app.retry.backoff_base < 0 || s.app.retry.backoff_max < s.app.retry.backoff_base ||
        s.app.retry.jitter_pct > 100) {
      *error = "spec: app parameter out of range";
      return false;
    }
  }
  // Overload block: absent-tolerant like the app block.
  if (const Json* o = json.Find("overload")) {
    if (!OverloadWindowsFromJson(*o, &s.overload_windows, error)) {
      return false;
    }
  }
  if (!json.GetUint("overload_pool_capacity", &s.overload_pool_capacity) ||
      !json.GetUint("overload_ring_capacity", &s.overload_ring_capacity)) {
    *error = "spec: overload field with wrong type";
    return false;
  }
  for (const auto& member : json.members()) {
    if (!IsKnownSpecKey(member.first)) {
      s.extra.Set(member.first, member.second);
    }
  }
  *out = std::move(s);
  return true;
}

ScenarioSpec SampleScenarioSpec(Rng* rng, const SampleLimits& limits) {
  ScenarioSpec s;
  s.seed = rng->NextU64();
  // kMixed plus the five concrete families, equally weighted.
  const uint64_t pick = rng->NextBounded(kNumFaultFamilies + 1);
  s.family = pick == kNumFaultFamilies ? FaultFamily::kMixed : static_cast<FaultFamily>(pick);
  s.transfer_bytes =
      limits.min_transfer_bytes +
      rng->NextBounded(limits.max_transfer_bytes - limits.min_transfer_bytes + 1);
  s.num_windows = 1 + static_cast<int>(rng->NextBounded(static_cast<uint64_t>(limits.max_windows)));
  s.reorder_delay = rng->NextInRange(Us(100), Us(400));
  s.int_coalesce = rng->NextInRange(Us(60), Us(200));
  // inseq below ofo, ofo comfortably above the reorder delay the family
  // generators assume — the sampler explores timing, not configurations the
  // stack documents as unsupported.
  s.inseq_timeout = rng->NextInRange(Us(30), Us(90));
  s.ofo_timeout = s.reorder_delay + rng->NextInRange(Us(50), Us(300));
  s.max_flows = 8 + rng->NextBounded(57);  // [8, 64]
  // Retired shard-era draws, still consumed so pinned fuzz seeds sample the same specs.
  if (rng->NextBool(0.3)) {
    rng->NextBounded(4);
  }
  rng->NextBool(0.25);
  // App-workload draws come from a stream derived from the spec's own seed,
  // not from `rng`: adding (or later extending) them consumes nothing from
  // the main stream, so every pre-app pinned fuzz seed still samples the
  // exact same specs.
  Rng app_rng(s.seed ^ 0xA02B'DBF7'BB3C'0A7ULL);
  if (app_rng.NextBool(limits.app_prob)) {
    AppWorkloadOptions& a = s.app;
    a.kind = static_cast<AppWorkloadKind>(1 + app_rng.NextBounded(4));
    a.sessions = 1 + static_cast<uint32_t>(app_rng.NextBounded(3));            // [1, 3]
    a.requests_per_session = 2 + static_cast<uint32_t>(app_rng.NextBounded(8));  // [2, 9]
    a.request_bytes = 128 + app_rng.NextBounded(897);        // [128, 1024]
    a.response_bytes = 4'096 + app_rng.NextBounded(20'481);  // [4 KiB, 24 KiB]
    a.chunk_bytes = 16'384 + app_rng.NextBounded(49'153);    // [16 KiB, 64 KiB]
    // At most 3 chunks per session: sequential bulk sessions fit inside
    // time_limit even if every chunk runs to its 160 ms deadline.
    a.transfer_bytes_per_session = a.chunk_bytes * (1 + app_rng.NextBounded(3));
    a.issue_interval = app_rng.NextInRange(Ms(1), Ms(3));
    // Retry policy stays at the defaults: generous deadlines so a correct
    // stack always completes — the fuzzer hunts bugs, not resource limits.
  }
  // Receive-driver draw from its own seed-derived stream, like the app and
  // overload draws: pinned fuzz seeds keep sampling the exact specs they
  // always did, they just sometimes run them on the COREC driver now.
  Rng rxd_rng(s.seed ^ 0xC04E'C0DD'5EED'F00DULL);
  if (rxd_rng.NextBool(limits.corec_prob)) {
    s.rx_driver = RxDriverKind::kCorec;
  }
  // Overload draws come from their own seed-derived stream for the same
  // reason: a pinned fuzz seed samples the same non-overload fields whether
  // or not this build knows about overload windows.
  Rng ovl_rng(s.seed ^ 0x0B'E7D0'AD5E'ED11ULL);
  if (ovl_rng.NextBool(limits.overload_prob)) {
    s.overload_pool_capacity = 1'024 + ovl_rng.NextBounded(7'169);  // [1 Ki, 8 Ki]
    const int count = 1 + static_cast<int>(ovl_rng.NextBounded(2));
    // Sequential non-overlapping windows early in the run: pressure flares
    // and subsides while the transfer is in flight, and the tail of
    // time_limit is always pressure-free recovery time.
    TimeNs cursor = Ms(5) + ovl_rng.NextInRange(0, Ms(10));
    for (int i = 0; i < count; ++i) {
      OverloadWindow w;
      w.kind = static_cast<OverloadKind>(ovl_rng.NextBounded(3));
      w.start = cursor;
      w.end = w.start + ovl_rng.NextInRange(Ms(5), Ms(25));
      w.flows = 32 + static_cast<uint32_t>(ovl_rng.NextBounded(97));            // [32, 128]
      w.packets_per_flow = 2 + static_cast<uint32_t>(ovl_rng.NextBounded(5));   // [2, 6]
      w.burst_interval = ovl_rng.NextInRange(Us(100), Us(400));
      w.cap_pct = 10 + static_cast<uint32_t>(ovl_rng.NextBounded(41));          // [10, 50]
      s.overload_windows.push_back(w);
      cursor = w.end + ovl_rng.NextInRange(Ms(2), Ms(10));
    }
  }
  return s;
}

}  // namespace juggler
