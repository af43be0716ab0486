#include "src/fault/fault_json.h"

#include <limits>

namespace juggler {

namespace {

bool SetError(std::string* error, const std::string& what) {
  if (error != nullptr) {
    *error = what;
  }
  return false;
}

// Emit only non-default fields? No: explicit every time. A spec is a value;
// a reader should not need the struct's defaults to know what ran.
Json TimeField(TimeNs t) { return Json::Int(t); }

}  // namespace

Json FaultProfileToJson(const FaultProfile& p) {
  Json j = Json::Object();
  j.Set("drop_prob", Json::Double(p.drop_prob));
  j.Set("burst_prob", Json::Double(p.burst_prob));
  j.Set("burst_len_min", Json::Int(p.burst_len_min));
  j.Set("burst_len_max", Json::Int(p.burst_len_max));
  j.Set("dup_prob", Json::Double(p.dup_prob));
  j.Set("corrupt_prob", Json::Double(p.corrupt_prob));
  j.Set("truncate_prob", Json::Double(p.truncate_prob));
  j.Set("delay_prob", Json::Double(p.delay_prob));
  j.Set("delay_min_ns", TimeField(p.delay_min));
  j.Set("delay_max_ns", TimeField(p.delay_max));
  return j;
}

bool FaultProfileFromJson(const Json& json, FaultProfile* out, std::string* error) {
  if (!json.is_object()) {
    return SetError(error, "fault profile must be an object");
  }
  FaultProfile p;
  if (!json.GetDouble("drop_prob", &p.drop_prob) ||
      !json.GetDouble("burst_prob", &p.burst_prob) ||
      !json.GetInt("burst_len_min", &p.burst_len_min) ||
      !json.GetInt("burst_len_max", &p.burst_len_max) ||
      !json.GetDouble("dup_prob", &p.dup_prob) ||
      !json.GetDouble("corrupt_prob", &p.corrupt_prob) ||
      !json.GetDouble("truncate_prob", &p.truncate_prob) ||
      !json.GetDouble("delay_prob", &p.delay_prob) ||
      !json.GetInt("delay_min_ns", &p.delay_min) ||
      !json.GetInt("delay_max_ns", &p.delay_max)) {
    return SetError(error, "fault profile has a wrong-typed or out-of-range field");
  }
  for (double prob : {p.drop_prob, p.burst_prob, p.dup_prob, p.corrupt_prob, p.truncate_prob,
                      p.delay_prob}) {
    if (prob < 0.0 || prob > 1.0) {
      return SetError(error, "fault profile probability outside [0, 1]");
    }
  }
  if (p.burst_len_min < 1 || p.burst_len_max < p.burst_len_min) {
    return SetError(error, "fault profile burst lengths invalid (need 1 <= min <= max)");
  }
  if (p.delay_min < 0 || p.delay_max < p.delay_min) {
    return SetError(error, "fault profile delay range invalid (need 0 <= min <= max)");
  }
  *out = p;
  return true;
}

Json FaultTimelineToJson(const FaultTimeline& timeline) {
  Json windows = Json::Array();
  for (const FaultTimeline::Window& w : timeline.windows()) {
    Json jw = Json::Object();
    jw.Set("start_ns", TimeField(w.start));
    // INT64_MAX means "open-ended"; serialize it as-is (exact in Json::Int).
    jw.Set("end_ns", TimeField(w.end));
    jw.Set("profile", FaultProfileToJson(w.profile));
    windows.Push(std::move(jw));
  }
  return windows;
}

bool FaultTimelineFromJson(const Json& json, FaultTimeline* out, std::string* error) {
  if (!json.is_array()) {
    return SetError(error, "fault timeline must be an array of windows");
  }
  FaultTimeline timeline;
  for (const Json& jw : json.items()) {
    if (!jw.is_object()) {
      return SetError(error, "fault window must be an object");
    }
    int64_t start = 0;
    int64_t end = std::numeric_limits<int64_t>::max();
    if (!jw.GetInt("start_ns", &start) || !jw.GetInt("end_ns", &end)) {
      return SetError(error, "fault window has a wrong-typed time");
    }
    if (start < 0 || end < start) {
      return SetError(error, "fault window times invalid (need 0 <= start <= end)");
    }
    FaultProfile profile;
    const Json* jp = jw.Find("profile");
    if (jp == nullptr || !FaultProfileFromJson(*jp, &profile, error)) {
      if (jp == nullptr) {
        return SetError(error, "fault window missing profile");
      }
      return false;
    }
    timeline.Add(start, end, profile);
  }
  *out = std::move(timeline);
  return true;
}

Json FlapWindowToJson(const FlapWindow& w) {
  Json j = Json::Object();
  j.Set("down_at_ns", TimeField(w.down_at));
  j.Set("up_at_ns", TimeField(w.up_at));
  j.Set("degraded_rate_bps", Json::Int(w.degraded_rate_bps));
  j.Set("degraded_queue_limit_bytes", Json::Int(w.degraded_queue_limit_bytes));
  return j;
}

bool FlapWindowFromJson(const Json& json, FlapWindow* out, std::string* error) {
  if (!json.is_object()) {
    return SetError(error, "flap window must be an object");
  }
  FlapWindow w;
  if (!json.GetInt("down_at_ns", &w.down_at) || !json.GetInt("up_at_ns", &w.up_at) ||
      !json.GetInt("degraded_rate_bps", &w.degraded_rate_bps) ||
      !json.GetInt("degraded_queue_limit_bytes", &w.degraded_queue_limit_bytes)) {
    return SetError(error, "flap window has a wrong-typed field");
  }
  if (w.down_at < 0 || w.up_at < w.down_at) {
    return SetError(error, "flap window times invalid (need 0 <= down_at <= up_at)");
  }
  if (w.degraded_rate_bps < 0) {
    return SetError(error, "flap window degraded rate must be >= 0");
  }
  *out = w;
  return true;
}

Json FlapWindowsToJson(const std::vector<FlapWindow>& windows) {
  Json arr = Json::Array();
  for (const FlapWindow& w : windows) {
    arr.Push(FlapWindowToJson(w));
  }
  return arr;
}

bool FlapWindowsFromJson(const Json& json, std::vector<FlapWindow>* out, std::string* error) {
  if (!json.is_array()) {
    return SetError(error, "flap windows must be an array");
  }
  std::vector<FlapWindow> windows;
  for (const Json& jw : json.items()) {
    FlapWindow w;
    if (!FlapWindowFromJson(jw, &w, error)) {
      return false;
    }
    windows.push_back(w);
  }
  *out = std::move(windows);
  return true;
}

Json OverloadWindowToJson(const OverloadWindow& w) {
  Json j = Json::Object();
  j.Set("start_ns", TimeField(w.start));
  j.Set("end_ns", TimeField(w.end));
  j.Set("kind", Json::Str(OverloadKindName(w.kind)));
  j.Set("flows", Json::Int(w.flows));
  j.Set("packets_per_flow", Json::Int(w.packets_per_flow));
  j.Set("burst_interval_ns", TimeField(w.burst_interval));
  j.Set("cap_pct", Json::Int(w.cap_pct));
  return j;
}

bool OverloadWindowFromJson(const Json& json, OverloadWindow* out, std::string* error) {
  if (!json.is_object()) {
    return SetError(error, "overload window must be an object");
  }
  OverloadWindow w;
  std::string kind;
  if (!json.GetInt("start_ns", &w.start) || !json.GetInt("end_ns", &w.end) ||
      !json.GetString("kind", &kind) || !json.GetInt("flows", &w.flows) ||
      !json.GetInt("packets_per_flow", &w.packets_per_flow) ||
      !json.GetInt("burst_interval_ns", &w.burst_interval) ||
      !json.GetInt("cap_pct", &w.cap_pct)) {
    return SetError(error, "overload window has a wrong-typed or out-of-range field");
  }
  if (!ParseOverloadKind(kind, &w.kind)) {
    return SetError(error, "overload window kind unknown: " + kind);
  }
  if (w.start < 0 || w.end < w.start) {
    return SetError(error, "overload window times invalid (need 0 <= start <= end)");
  }
  if (w.packets_per_flow < 1 || w.burst_interval < 1) {
    return SetError(error, "overload window injection fields invalid");
  }
  if (w.cap_pct < 1 || w.cap_pct > 100) {
    return SetError(error, "overload window cap_pct outside [1, 100]");
  }
  *out = w;
  return true;
}

Json OverloadWindowsToJson(const std::vector<OverloadWindow>& windows) {
  Json arr = Json::Array();
  for (const OverloadWindow& w : windows) {
    arr.Push(OverloadWindowToJson(w));
  }
  return arr;
}

bool OverloadWindowsFromJson(const Json& json, std::vector<OverloadWindow>* out,
                             std::string* error) {
  if (!json.is_array()) {
    return SetError(error, "overload windows must be an array");
  }
  std::vector<OverloadWindow> windows;
  for (const Json& jw : json.items()) {
    OverloadWindow w;
    if (!OverloadWindowFromJson(jw, &w, error)) {
      return false;
    }
    windows.push_back(w);
  }
  *out = std::move(windows);
  return true;
}

}  // namespace juggler
