#include "src/forensics/failure_signature.h"

namespace juggler {
namespace {

constexpr size_t kMaxDetail = 200;

uint64_t Fnv1a(const std::string& kind_name, const std::string& detail) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](char c) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  };
  for (char c : kind_name) {
    mix(c);
  }
  mix('\0');
  for (char c : detail) {
    mix(c);
  }
  return h;
}

constexpr SignatureKind kAllKinds[] = {
    SignatureKind::kClean,          SignatureKind::kInvariantViolation,
    SignatureKind::kException,      SignatureKind::kCrashSignal,
    SignatureKind::kSanitizerAbort, SignatureKind::kDeadlockTimeout,
    SignatureKind::kAbnormalExit,
};

}  // namespace

const char* SignatureKindName(SignatureKind kind) {
  switch (kind) {
    case SignatureKind::kClean:
      return "clean";
    case SignatureKind::kInvariantViolation:
      return "invariant-violation";
    case SignatureKind::kException:
      return "exception";
    case SignatureKind::kCrashSignal:
      return "crash-signal";
    case SignatureKind::kSanitizerAbort:
      return "sanitizer-abort";
    case SignatureKind::kDeadlockTimeout:
      return "deadlock-timeout";
    case SignatureKind::kAbnormalExit:
      return "abnormal-exit";
  }
  return "?";
}

bool ParseSignatureKind(const std::string& name, SignatureKind* out) {
  for (SignatureKind k : kAllKinds) {
    if (name == SignatureKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

std::string NormalizeDetail(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  bool in_digits = false;
  for (char c : raw) {
    if (c == '\n' || c == '\r') {
      break;  // first line only
    }
    if (c >= '0' && c <= '9') {
      if (!in_digits) {
        out.push_back('#');
        in_digits = true;
      }
      continue;
    }
    in_digits = false;
    out.push_back(c);
    if (out.size() >= kMaxDetail) {
      break;
    }
  }
  return out;
}

FailureSignature MakeSignature(SignatureKind kind, const std::string& raw_detail) {
  FailureSignature s;
  s.kind = kind;
  s.detail = NormalizeDetail(raw_detail);
  s.fingerprint = Fnv1a(SignatureKindName(kind), s.detail);
  return s;
}

Json FailureSignature::ToJson() const {
  Json j = Json::Object();
  j.Set("kind", Json::Str(SignatureKindName(kind)));
  j.Set("detail", Json::Str(detail));
  j.Set("fingerprint", Json::Uint(fingerprint));
  return j;
}

bool FailureSignature::FromJson(const Json& json, FailureSignature* out, std::string* error) {
  if (!json.is_object()) {
    *error = "signature: not an object";
    return false;
  }
  std::string kind_name = "clean";
  FailureSignature s;
  if (!json.GetString("kind", &kind_name) || !json.GetString("detail", &s.detail) ||
      !json.GetUint("fingerprint", &s.fingerprint)) {
    *error = "signature: field with wrong type";
    return false;
  }
  if (!ParseSignatureKind(kind_name, &s.kind)) {
    *error = "signature: unknown kind \"" + kind_name + "\"";
    return false;
  }
  *out = s;
  return true;
}

}  // namespace juggler
