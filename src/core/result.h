// Lightweight expected/error types.
//
// Expected failures (malformed packet, lost response, empty trace) are
// values, not exceptions; exceptions are reserved for programming errors
// (precondition violations). `Result<T>` carries either a T or an Error.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace mntp::core {

/// Machine-comparable error category plus a human-readable message.
struct Error {
  enum class Code {
    kInvalidArgument,
    kMalformedPacket,
    kTimeout,
    kPacketLost,
    kRejected,       // sample rejected by a filter
    kKissOfDeath,    // server demanded rate reduction (RFC 5905 KoD)
    kUnavailable,    // channel/service not in a usable state
    kNotFound,
    kIo,
  };

  Code code = Code::kInvalidArgument;
  std::string message;

  [[nodiscard]] static Error invalid_argument(std::string msg) {
    return {Code::kInvalidArgument, std::move(msg)};
  }
  [[nodiscard]] static Error malformed(std::string msg) {
    return {Code::kMalformedPacket, std::move(msg)};
  }
  [[nodiscard]] static Error timeout(std::string msg) {
    return {Code::kTimeout, std::move(msg)};
  }
  [[nodiscard]] static Error lost(std::string msg) {
    return {Code::kPacketLost, std::move(msg)};
  }
  [[nodiscard]] static Error rejected(std::string msg) {
    return {Code::kRejected, std::move(msg)};
  }
  [[nodiscard]] static Error kiss_of_death(std::string msg) {
    return {Code::kKissOfDeath, std::move(msg)};
  }
  [[nodiscard]] static Error unavailable(std::string msg) {
    return {Code::kUnavailable, std::move(msg)};
  }
  [[nodiscard]] static Error not_found(std::string msg) {
    return {Code::kNotFound, std::move(msg)};
  }
  [[nodiscard]] static Error io(std::string msg) {
    return {Code::kIo, std::move(msg)};
  }
};

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Result(Error error) : v_(std::move(error)) {}      // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  /// Access the value; throws std::logic_error if this holds an error.
  [[nodiscard]] const T& value() const& {
    if (!ok()) throw std::logic_error("Result::value on error: " + error().message);
    return std::get<T>(v_);
  }
  [[nodiscard]] T& value() & {
    if (!ok()) throw std::logic_error("Result::value on error: " + error().message);
    return std::get<T>(v_);
  }
  [[nodiscard]] T&& take() && {
    if (!ok()) throw std::logic_error("Result::take on error: " + error().message);
    return std::get<T>(std::move(v_));
  }

  /// Access the error; throws std::logic_error if this holds a value.
  [[nodiscard]] const Error& error() const {
    if (ok()) throw std::logic_error("Result::error on value");
    return std::get<Error>(v_);
  }

  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> v_;
};

/// Result specialization for operations that return no value.
class [[nodiscard]] Status {
 public:
  Status() = default;                             // success
  Status(Error error) : err_(std::move(error)) {} // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return !err_.has_value(); }
  explicit operator bool() const { return ok(); }
  [[nodiscard]] const Error& error() const {
    if (ok()) throw std::logic_error("Status::error on success");
    return *err_;
  }

 private:
  std::optional<Error> err_;
};

}  // namespace mntp::core
