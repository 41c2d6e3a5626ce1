// Message-level transports. Thrift's client/server exchange whole
// serialized messages; TFramedTransport frames them over a byte stream
// (TSocket), while TRdma (rdma.h) maps them onto an RDMA protocol channel.
#pragma once

#include <optional>

#include "proto/wire.h"
#include "thrift/socket.h"
#include "thrift/ttypes.h"

namespace hatrpc::thrift {

using Buffer = std::vector<std::byte>;
using View = std::span<const std::byte>;

/// One request or response as a unit.
class MessageTransport {
 public:
  virtual ~MessageTransport() = default;
  virtual sim::Task<void> send(View msg) = 0;
  /// nullopt on orderly EOF.
  virtual sim::Task<std::optional<Buffer>> recv() = 0;
  virtual void close() = 0;
};

/// [u32 length][payload] frames over a simulated TCP socket — Thrift's
/// TFramedTransport on TSocket.
class TFramedTransport final : public MessageTransport {
 public:
  /// `max_frame` bounds the peer-declared frame length (Apache Thrift's
  /// maxFrameSize): a longer frame is rejected before anything is
  /// allocated for it.
  explicit TFramedTransport(SimSocket* sock, uint32_t max_frame = UINT32_MAX)
      : sock_(sock), max_frame_(max_frame) {}

  sim::Task<void> send(View msg) override {
    Buffer frame(4 + msg.size());
    proto::put_u32(frame.data(), static_cast<uint32_t>(msg.size()));
    std::memcpy(frame.data() + 4, msg.data(), msg.size());
    co_await sock_->write(frame);
  }

  sim::Task<std::optional<Buffer>> recv() override {
    std::byte hdr[4];
    size_t got = co_await sock_->read(hdr, 1);
    if (got == 0) co_return std::nullopt;  // clean EOF between frames
    co_await sock_->read_exact(hdr + 1, 3);
    uint32_t len = proto::get_u32(hdr);
    if (len > max_frame_)
      throw TTransportException(TTransportException::Kind::kCorrupted,
                                "frame exceeds max_frame");
    Buffer msg(len);
    co_await sock_->read_exact(msg.data(), len);
    co_return msg;
  }

  void close() override { sock_->close(); }

  SimSocket* socket() { return sock_; }

 private:
  SimSocket* sock_;
  uint32_t max_frame_;
};

}  // namespace hatrpc::thrift
