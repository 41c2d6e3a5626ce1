// TMemoryBuffer: the synchronous byte buffer the serialization protocols
// operate on. Serialization is CPU work, not I/O, so it stays synchronous;
// the async boundary (simulated transports) is at message granularity.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "thrift/ttypes.h"

namespace hatrpc::thrift {

class TMemoryBuffer {
 public:
  TMemoryBuffer() = default;

  /// Read-only view over existing bytes (zero-copy deserialization entry):
  /// nothing is copied or allocated, so the wrapped bytes must outlive the
  /// buffer. A write() first copies them into owned storage; the source is
  /// never written.
  static TMemoryBuffer wrap(std::span<const std::byte> bytes) {
    TMemoryBuffer b;
    // Capacity 0 sends every write down the spill path, so the const bytes
    // are only ever read through ext_.
    b.ext_ = const_cast<std::byte*>(bytes.data());
    b.ext_len_ = bytes.size();
    return b;
  }

  /// Serialization target backed by caller-provided storage (a pooled,
  /// pre-registered block on the zero-copy send path): writes land in the
  /// backing in place; a message that outgrows it spills to the heap.
  static TMemoryBuffer backed(std::span<std::byte> storage) {
    TMemoryBuffer b;
    b.ext_ = storage.data();
    b.ext_cap_ = storage.size();
    return b;
  }

  void write(const void* p, size_t n) {
    if (n == 0) return;
    const std::byte* s = static_cast<const std::byte*>(p);
    if (in_ext()) {
      if (ext_len_ + n <= ext_cap_) {
        std::memcpy(ext_ + ext_len_, s, n);
        ext_len_ += n;
        return;
      }
      buf_.reserve(ext_len_ + n + kSlack);  // empty while in_ext()
      buf_.assign(ext_, ext_ + ext_len_);
      spilled_ = true;
    } else if (buf_.size() + n > buf_.capacity()) {
      // Geometric growth with slack: a vector's range insert grows to the
      // exact size, so the 1-byte field stop after a large string would
      // otherwise reallocate and copy the whole string again.
      buf_.reserve(std::max(2 * buf_.capacity(), buf_.size() + n + kSlack));
    }
    buf_.insert(buf_.end(), s, s + n);
  }

  void read(void* p, size_t n) {
    if (rpos_ + n > size())
      throw TTransportException(TTransportException::Kind::kEndOfFile,
                                "TMemoryBuffer underflow");
    std::memcpy(p, data() + rpos_, n);
    rpos_ += n;
  }

  /// Checks the declared length against the bytes present before
  /// allocating, so a peer cannot buy a huge allocation with a few bytes.
  std::string read_string(size_t n) {
    if (n > readable())
      throw TTransportException(TTransportException::Kind::kEndOfFile,
                                "TMemoryBuffer underflow");
    std::string s(reinterpret_cast<const char*>(data() + rpos_), n);
    rpos_ += n;
    return s;
  }

  size_t readable() const { return size() - rpos_; }
  std::span<const std::byte> view() const { return {data(), size()}; }
  std::vector<std::byte> take() {
    if (in_ext()) return {ext_, ext_ + ext_len_};
    return std::move(buf_);
  }

  /// True while the contents live in the caller-provided backing (i.e. the
  /// message fit and view() points into pre-registered memory).
  bool backed_in_place() const { return in_ext(); }

  void reset() {
    buf_.clear();
    rpos_ = 0;
    ext_len_ = 0;
    spilled_ = false;
  }

 private:
  static constexpr size_t kSlack = 64;  // headroom for trailing headers

  bool in_ext() const { return ext_ != nullptr && !spilled_; }
  const std::byte* data() const { return in_ext() ? ext_ : buf_.data(); }
  size_t size() const { return in_ext() ? ext_len_ : buf_.size(); }

  std::vector<std::byte> buf_;
  size_t rpos_ = 0;
  std::byte* ext_ = nullptr;  // external backing (backed() or wrap())
  size_t ext_cap_ = 0;
  size_t ext_len_ = 0;
  bool spilled_ = false;
};

}  // namespace hatrpc::thrift
