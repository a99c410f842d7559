#ifndef MINIRAID_MSG_CODEC_H_
#define MINIRAID_MSG_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace miniraid {

/// Append-only binary encoder. Fixed-width integers are little-endian;
/// unsigned varints use LEB128. The format is the same for the in-memory
/// and socket transports so a message round-trips identically everywhere.
class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }

  /// LEB128 unsigned varint (1-10 bytes).
  void PutVarint(uint64_t v);

  /// Length-prefixed byte string.
  void PutString(const std::string& s);

  /// Appends `n` raw bytes (no length prefix).
  void PutBytes(const uint8_t* data, size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  /// Pre-sizes the buffer for at least `n` total bytes.
  void reserve(size_t n) { buf_.reserve(n); }

  /// Length-prefixed vector of POD-encodable elements via a callback.
  template <typename T, typename F>
  void PutVector(const std::vector<T>& v, F&& put_element) {
    PutVarint(v.size());
    for (const T& e : v) put_element(*this, e);
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    // Stage the little-endian bytes in a local array and append with one
    // memcpy: a single amortized grow instead of sizeof(T) bounds-checked
    // push_backs on the hottest encode path. GCC 12 misdiagnoses the
    // append as out of bounds at -O2 (PR 105523 lineage) and the build is
    // -Werror, so the false positive is suppressed locally for exactly
    // that compiler.
    uint8_t raw[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      raw[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    const size_t old_size = buf_.size();
    buf_.resize(old_size + sizeof(T));
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif
    std::memcpy(buf_.data() + old_size, raw, sizeof(T));
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic pop
#endif
  }

  /// Value type: encoders are stack-local to whichever context is
  /// serializing; the buffer never outlives the encode call chain.
  std::vector<uint8_t> buf_ MR_CONTEXT_CONFINED(any);
};

/// Bounds-checked reader over an encoded buffer. Every getter returns a
/// Status so truncated or corrupt input surfaces as StatusCode::kCorruption
/// instead of undefined behaviour.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(const std::vector<uint8_t>& buf)
      : Decoder(buf.data(), buf.size()) {}

  Status GetU8(uint8_t* out);
  Status GetU16(uint16_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetI64(int64_t* out);
  Status GetVarint(uint64_t* out);
  Status GetString(std::string* out);

  /// Like GetString but yields a view into the frame instead of a copy.
  /// The view is only valid while the decoded buffer is: callers that keep
  /// it past the decode call chain are flagged by miniraid-analyze's
  /// view-escape pass, which is what makes the zero-copy form safe to
  /// offer at all. Use for decode-then-discard fields (logging, filtering,
  /// comparisons) where GetString's copy is pure waste.
  Status GetStringView(std::string_view* out);

  /// Length-prefixed vector; `get_element` decodes one element.
  template <typename T, typename F>
  Status GetVector(std::vector<T>* out, F&& get_element) {
    uint64_t n = 0;
    MINIRAID_RETURN_IF_ERROR(GetVarint(&n));
    if (n > remaining()) {
      // Each element takes >= 1 byte, so this length is impossible; reject
      // before attempting a huge allocation from corrupt input.
      return Status::Corruption("vector length exceeds remaining bytes");
    }
    out->clear();
    out->reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      T element;
      MINIRAID_RETURN_IF_ERROR(get_element(*this, &element));
      out->push_back(std::move(element));
    }
    return Status::Ok();
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  size_t position() const { return pos_; }

 private:
  template <typename T>
  Status GetFixed(T* out) {
    if (remaining() < sizeof(T)) {
      return Status::Corruption("buffer truncated");
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    *out = v;
    return Status::Ok();
  }

  const uint8_t* data_;
  size_t size_;
  /// Value type: decoders are stack-local to the context draining one
  /// message; the read cursor is never shared.
  size_t pos_ MR_CONTEXT_CONFINED(any) = 0;
};

}  // namespace miniraid

#endif  // MINIRAID_MSG_CODEC_H_
