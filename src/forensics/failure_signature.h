// FailureSignature: the classified identity of one failing run.
//
// The supervisor needs to answer two questions about every child it reaps:
// "did this fail, and is it the *same* failure I already have?". A signature
// is (kind, normalized detail, fingerprint): the kind is the taxonomy bucket
// (invariant violation, crash signal, sanitizer abort, deadlock timeout,
// digest divergence, ...), the detail is the first line of evidence with
// digit runs collapsed — byte counts, sequence numbers and timestamps vary
// between a raw repro and its shrunk form, the shape of the message does
// not — and the fingerprint is an FNV-1a over both, stable enough to dedup
// findings and to assert that a replayed bundle reproduces *this* failure.

#ifndef JUGGLER_SRC_FORENSICS_FAILURE_SIGNATURE_H_
#define JUGGLER_SRC_FORENSICS_FAILURE_SIGNATURE_H_

#include <cstdint>
#include <string>

#include "src/util/json.h"

namespace juggler {

enum class SignatureKind : int {
  kClean = 0,           // no failure
  kInvariantViolation,  // StreamIntegrityChecker / JugglerAuditor / incomplete
  kException,           // a std::exception escaped the run (EventLoopCallbackError)
  kCrashSignal,         // child died by signal (JUG_CHECK abort, segfault)
  kSanitizerAbort,      // ASan/TSan/UBSan report on stderr
  kDeadlockTimeout,     // watchdog SIGKILLed a wedged child
  kAbnormalExit,        // nonzero exit or unparseable report, cause unknown
};

const char* SignatureKindName(SignatureKind kind);
bool ParseSignatureKind(const std::string& name, SignatureKind* out);

// Digit runs collapsed to '#' (so "in 152 vs out 153" == "in 7 vs out 8"),
// everything past the first line dropped, length capped.
std::string NormalizeDetail(const std::string& raw);

struct FailureSignature {
  SignatureKind kind = SignatureKind::kClean;
  std::string detail;        // already normalized
  uint64_t fingerprint = 0;  // FNV-1a over kind name + '\0' + detail

  bool failure() const { return kind != SignatureKind::kClean; }

  bool operator==(const FailureSignature& other) const {
    return kind == other.kind && detail == other.detail && fingerprint == other.fingerprint;
  }

  Json ToJson() const;
  static bool FromJson(const Json& json, FailureSignature* out, std::string* error);
};

// Builds a signature, normalizing `raw_detail` and computing the fingerprint.
FailureSignature MakeSignature(SignatureKind kind, const std::string& raw_detail);

}  // namespace juggler

#endif  // JUGGLER_SRC_FORENSICS_FAILURE_SIGNATURE_H_
