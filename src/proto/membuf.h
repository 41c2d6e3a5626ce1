// MemoryBuffer (Thrift's TMemoryBuffer): the synchronous byte buffer the
// serialization protocols operate on, and the buffer a server handler
// writes its response into. Serialization is CPU work, not I/O, so it stays
// synchronous; the async boundary (simulated transports) is at message
// granularity. It lives below proto so a channel can hand its handler a
// buffer backed by the registered slot the response is sent from.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

// Only for the exception types an underflow raises: ttypes.h depends on
// nothing but the standard library.
#include "thrift/ttypes.h"

namespace hatrpc::proto {

class MemoryBuffer {
 public:
  MemoryBuffer() = default;

  /// Read-only view over existing bytes (zero-copy deserialization entry):
  /// nothing is copied or allocated, so the wrapped bytes must outlive the
  /// buffer. A write() first copies them into owned storage; the source is
  /// never written.
  static MemoryBuffer wrap(std::span<const std::byte> bytes) {
    MemoryBuffer b;
    // Capacity 0 sends every write down the spill path, so the const bytes
    // are only ever read through ext_.
    b.ext_ = const_cast<std::byte*>(bytes.data());
    b.ext_len_ = bytes.size();
    return b;
  }

  /// Serialization target backed by caller-provided storage (a registered
  /// channel slot or pooled block): writes land in the backing in place; a
  /// message that outgrows it spills to the heap.
  static MemoryBuffer backed(std::span<std::byte> storage) {
    MemoryBuffer b;
    b.ext_ = storage.data();
    b.ext_cap_ = storage.size();
    return b;
  }

  /// Sizing target: stores nothing and only counts the bytes written, so a
  /// frame can be measured before the memory it will land in is claimed.
  static MemoryBuffer counting() {
    MemoryBuffer b;
    b.counting_ = true;
    return b;
  }

  void write(const void* p, size_t n) {
    if (n == 0) return;
    if (counting_) {
      ext_len_ += n;
      return;
    }
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
      throw thrift::TTransportException(
          thrift::TTransportException::Kind::kEndOfFile,
          "TMemoryBuffer underflow");
    std::memcpy(p, data() + rpos_, n);
    rpos_ += n;
  }

  /// Checks the declared length against the bytes present before
  /// allocating, so a peer cannot buy a huge allocation with a few bytes.
  std::string read_string(size_t n) {
    if (n > readable())
      throw thrift::TTransportException(
          thrift::TTransportException::Kind::kEndOfFile,
          "TMemoryBuffer underflow");
    std::string s(reinterpret_cast<const char*>(data() + rpos_), n);
    rpos_ += n;
    return s;
  }

  /// Bytes written so far (for a counting buffer, the only thing it keeps).
  size_t size() const {
    return in_ext() || counting_ ? ext_len_ : buf_.size();
  }
  size_t readable() const { return size() - rpos_; }
  std::span<const std::byte> view() const { return {data(), size()}; }
  /// The bytes not read yet.
  std::span<const std::byte> unread() const { return view().subspan(rpos_); }
  std::vector<std::byte> take() {
    if (in_ext()) return {ext_, ext_ + ext_len_};
    return std::move(buf_);
  }

  /// True while the contents live in the caller-provided backing (i.e. the
  /// message fit and view() points into that memory).
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

  std::vector<std::byte> buf_;
  size_t rpos_ = 0;
  std::byte* ext_ = nullptr;  // external backing (backed() or wrap())
  size_t ext_cap_ = 0;
  size_t ext_len_ = 0;
  bool spilled_ = false;
  bool counting_ = false;
};

}  // namespace hatrpc::proto
