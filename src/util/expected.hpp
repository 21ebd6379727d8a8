#pragma once

/// \file expected.hpp
/// Structured error taxonomy for fallible engine entry points.
///
/// The evaluation engine sits on the service path of the ROADMAP's
/// multi-tenant north star, where callers must tell a malformed request
/// (kInvalidArgument) from a resource denial (kMemoryBudget, kDeadline)
/// from a numerical failure (kNonFinite): the first is the client's fault,
/// the second calls for retry/degradation, the third for quarantine of the
/// offending input. Ad-hoc `throw std::runtime_error` gives every caller
/// the same opaque string; `Expected<T>` gives them a typed `ErrorCode`
/// plus a human-readable message, without exceptions on the failure path.
///
/// Conventions:
///  * Engine entry points come in pairs: `try_foo()` returns Expected and
///    never throws taxonomy errors; the legacy `foo()` wrapper converts an
///    Error into an EngineError via throw_error() for callers that prefer
///    exceptions (examples, benches). The treecode-analyze rule
///    `engine-returns-expected` rejects raw `throw` statements in src/engine
///    and src/service so new failure paths cannot bypass the taxonomy.
///  * Producing an Error is side-effect-free here; the engine records every
///    failure to the metrics registry and as a tracer event at the point
///    it constructs the Error (see eval_session.cpp engine_error()).

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace treecode {

/// Every way a fallible engine operation can fail. Codes are stable,
/// coarse-grained categories: the message carries the specifics.
enum class ErrorCode : std::uint8_t {
  kOk = 0,          ///< success sentinel (never carried by an Error in an Expected)
  kInvalidArgument, ///< malformed request: size mismatch, bad config, foreign plan
  kMemoryBudget,    ///< a ResourceGovernor byte reservation was denied
  kDeadline,        ///< EvalConfig::deadline_seconds elapsed mid-evaluation
  kCancelled,       ///< an external cancellation token stopped the sweep
  kFaultInjected,   ///< a TREECODE_FAULT_INJECT site fired (tests/CI only)
  kNonFinite,       ///< non-finite input or computed potential detected
  kInternal,        ///< invariant violation / should-not-happen
  kRejected,        ///< admission control refused the request (queue full,
                    ///< tenant quarantined, service shutting down)
};

/// Stable lower-case name for a code ("memory_budget", "deadline", ...).
/// Returns string literals, safe to name a tracer event by.
[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

/// One failure: a taxonomy code plus a human-readable account.
struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Exception form of an Error, thrown by the legacy (non-try_) engine
/// wrappers via throw_error(). Carries the code so catch sites can still
/// branch on the taxonomy.
class EngineError : public std::runtime_error {
 public:
  EngineError(ErrorCode code, const std::string& message);
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Throw `error` as an EngineError. The single funnel from the Expected
/// world into the exception world — engine code never writes `throw`.
[[noreturn]] void throw_error(const Error& error);

/// A value of type T or an Error; the return type of every fallible engine
/// entry point. Minimal by design (no monadic combinators): callers check
/// ok() and branch.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}             // NOLINT(*-explicit-*)
  Expected(Error error) : error_(std::move(error)) {}         // NOLINT(*-explicit-*)

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  /// Precondition: ok().
  [[nodiscard]] T& value() & noexcept { return *value_; }
  [[nodiscard]] const T& value() const& noexcept { return *value_; }
  [[nodiscard]] T&& value() && noexcept { return *std::move(value_); }

  /// Precondition: !ok().
  [[nodiscard]] const Error& error() const noexcept { return error_; }

  /// Unwrap or convert the error into an EngineError (legacy-wrapper path).
  T value_or_throw() && {
    if (!ok()) throw_error(error_);
    return *std::move(value_);
  }

 private:
  std::optional<T> value_;
  Error error_{ErrorCode::kOk, {}};
};

/// Success-or-Error for operations with no payload (charge updates).
template <>
class [[nodiscard]] Expected<void> {
 public:
  Expected() = default;
  Expected(Error error) : error_(std::move(error)) {}         // NOLINT(*-explicit-*)

  [[nodiscard]] bool ok() const noexcept { return error_.code == ErrorCode::kOk; }
  explicit operator bool() const noexcept { return ok(); }
  [[nodiscard]] const Error& error() const noexcept { return error_; }

  void value_or_throw() const {
    if (!ok()) throw_error(error_);
  }

 private:
  Error error_{ErrorCode::kOk, {}};
};

}  // namespace treecode
