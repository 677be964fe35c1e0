// Decode-error taxonomy and a Result type for the wire-format codecs.
//
// Real telemetry is lossy: sampled IPFIX arrives truncated, bit-flipped,
// re-ordered and duplicated, and a vantage outage can interleave stale
// templates with fresh data. The decoders therefore never report failure as
// a bare std::nullopt; they return Result<T> carrying either a value or a
// DecodeError naming what was wrong, and every *recoverable* defect they
// skipped on the way is tallied in the value's DecodeDamage so callers can
// reconcile `offered == clean + recovered + skipped` exactly (DESIGN.md
// §10).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

namespace booterscope::util {

/// Why a decode failed (fatal) or was degraded (recoverable). The same
/// taxonomy covers NetFlow v5, IPFIX, pcap and the BSF1 flow store so
/// metrics and manifests can aggregate across codecs.
enum class DecodeError : std::uint8_t {
  kTruncatedHeader,    // buffer ends inside the fixed header
  kBadVersion,         // version / link-type field is not the expected one
  kBadMagic,           // file magic mismatch (BSF1, pcap)
  kLengthOverflow,     // declared length exceeds the buffer or would overflow
  kCountMismatch,      // declared record count disagrees with available bytes
  kBadSetLength,       // set/flowset length too small to be a valid set
  kBadTemplate,        // malformed template definition (zero/oversized field)
  kUnknownTemplate,    // data set references a template the cache never saw
  kTruncatedRecord,    // a record extends past the buffer or set boundary
  kDuplicateSequence,  // export sequence number was already processed
  kIo,                 // underlying file I/O failed
};

inline constexpr std::size_t kDecodeErrorCount = 11;

[[nodiscard]] constexpr std::string_view to_string(DecodeError e) noexcept {
  switch (e) {
    case DecodeError::kTruncatedHeader: return "truncated_header";
    case DecodeError::kBadVersion: return "bad_version";
    case DecodeError::kBadMagic: return "bad_magic";
    case DecodeError::kLengthOverflow: return "length_overflow";
    case DecodeError::kCountMismatch: return "count_mismatch";
    case DecodeError::kBadSetLength: return "bad_set_length";
    case DecodeError::kBadTemplate: return "bad_template";
    case DecodeError::kUnknownTemplate: return "unknown_template";
    case DecodeError::kTruncatedRecord: return "truncated_record";
    case DecodeError::kDuplicateSequence: return "duplicate_sequence";
    case DecodeError::kIo: return "io";
  }
  return "unknown";
}

/// Every variant, for tests and metric pre-registration.
[[nodiscard]] constexpr std::array<DecodeError, kDecodeErrorCount>
all_decode_errors() noexcept {
  return {DecodeError::kTruncatedHeader, DecodeError::kBadVersion,
          DecodeError::kBadMagic,        DecodeError::kLengthOverflow,
          DecodeError::kCountMismatch,   DecodeError::kBadSetLength,
          DecodeError::kBadTemplate,     DecodeError::kUnknownTemplate,
          DecodeError::kTruncatedRecord, DecodeError::kDuplicateSequence,
          DecodeError::kIo};
}

/// Tally of recoverable defects inside one successfully decoded message:
/// what the decoder skipped or salvaged instead of rejecting the buffer.
struct DecodeDamage {
  /// Records dropped inside an otherwise decoded message.
  std::uint64_t records_skipped = 0;
  /// Times the decoder re-aligned at the next set/record boundary.
  std::uint64_t resyncs = 0;
  /// Recoverable causes, by taxonomy entry.
  std::array<std::uint64_t, kDecodeErrorCount> by_error{};

  void note(DecodeError e, std::uint64_t skipped_records = 0) noexcept {
    ++by_error[static_cast<std::size_t>(e)];
    records_skipped += skipped_records;
  }
  [[nodiscard]] std::uint64_t count(DecodeError e) const noexcept {
    return by_error[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] bool clean() const noexcept {
    for (const std::uint64_t n : by_error) {
      if (n != 0) return false;
    }
    return records_skipped == 0 && resyncs == 0;
  }
  void merge(const DecodeDamage& other) noexcept {
    records_skipped += other.records_skipped;
    resyncs += other.resyncs;
    for (std::size_t i = 0; i < by_error.size(); ++i) {
      by_error[i] += other.by_error[i];
    }
  }
};

/// Value-or-DecodeError. Mirrors std::optional's read API (has_value(),
/// operator*, operator->) so decoder call sites migrate without churn, and
/// adds error() naming the fatal cause when empty.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Implicit on purpose: `return packet;` and `return DecodeError::kX;`.
  Result(T value) : value_(std::move(value)) {}
  Result(DecodeError error) noexcept : error_(error) {}

  [[nodiscard]] bool has_value() const noexcept { return value_.has_value(); }
  [[nodiscard]] explicit operator bool() const noexcept { return has_value(); }

  [[nodiscard]] T& operator*() noexcept { return *value_; }
  [[nodiscard]] const T& operator*() const noexcept { return *value_; }
  [[nodiscard]] T* operator->() noexcept { return &*value_; }
  [[nodiscard]] const T* operator->() const noexcept { return &*value_; }
  [[nodiscard]] T& value() { return value_.value(); }
  [[nodiscard]] const T& value() const { return value_.value(); }

  /// Fatal cause; only meaningful when !has_value().
  [[nodiscard]] DecodeError error() const noexcept { return error_; }

 private:
  std::optional<T> value_;
  DecodeError error_ = DecodeError::kIo;
};

}  // namespace booterscope::util
