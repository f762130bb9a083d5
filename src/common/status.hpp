// Recoverable, data-dependent error reporting.
//
// The failure taxonomy of this codebase has two tiers (see check.hpp):
//
//  * programming-error contract violations — a caller broke an API's
//    documented precondition. These abort via WEHEY_EXPECTS and friends;
//    there is nothing sensible to recover to.
//  * data-dependent failures — a *measurement* turned out to be empty,
//    truncated, non-finite, desynchronized, or otherwise unusable. On a
//    real deployment these happen all the time (aborted replays, lost
//    uploads, skewed server clocks), so they must flow through a
//    recoverable path that the consumers (the localizer's degradation
//    logic, the session retry loop) can inspect and act on.
//
// wehey::Status is that recoverable path: a tiny value type carrying a
// machine-readable code plus a human-readable message. Functions that can
// fail on bad data either return a Status next to their result or record
// one inside the result struct.
#pragma once

#include <string>
#include <utility>

namespace wehey {

enum class StatusCode {
  Ok = 0,
  InvalidData,       ///< non-finite samples, negative durations, garbage
  InsufficientData,  ///< series too short / empty for the requested analysis
  Unavailable,       ///< a required resource (server pair, DB) not reachable
  Timeout,           ///< a bounded wait elapsed without an answer
  Aborted,           ///< the producing operation died before completing
};

const char* to_string(StatusCode code);

class Status {
 public:
  /// Default: Ok.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status invalid_data(std::string msg) {
    return {StatusCode::InvalidData, std::move(msg)};
  }
  static Status insufficient_data(std::string msg) {
    return {StatusCode::InsufficientData, std::move(msg)};
  }
  static Status unavailable(std::string msg) {
    return {StatusCode::Unavailable, std::move(msg)};
  }
  static Status timeout(std::string msg) {
    return {StatusCode::Timeout, std::move(msg)};
  }
  static Status aborted(std::string msg) {
    return {StatusCode::Aborted, std::move(msg)};
  }

  bool ok() const { return code_ == StatusCode::Ok; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "insufficient-data: loss series shorter than one interval".
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::Ok;
  std::string message_;
};

}  // namespace wehey
