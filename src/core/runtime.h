// RPC runtime interfaces that generated code targets.
//
// A generated client stub hands HatCaller::call an args writer and a result
// reader; a generated processor deserializes, invokes the user's handler
// implementation, and serializes the result. The envelope is a standard
// Thrift message (name, type, seqid) so the same bytes flow over TSocket and
// TRdma unchanged.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "sim/task.h"
#include "thrift/protocol.h"
#include "thrift/transport.h"

namespace hatrpc::core {

using thrift::Buffer;
using thrift::View;

/// Serializes a call's args struct (after the envelope the caller wrote).
using ArgsWriter = std::function<void(thrift::TProtocol&)>;
/// Decodes a reply's result struct in place (after the envelope).
using ResultReader = std::function<void(thrift::TProtocol&)>;

/// Client-side call interface (implemented by HatConnection, the bench and
/// cluster callers, and decorators over them).
class HatCaller {
 public:
  virtual ~HatCaller() = default;

  /// Byte-level call: `payload` is the serialized args struct; resolves to
  /// the serialized result struct. `method` is taken by value: coroutine
  /// implementations move it into their frame, so callers may pass
  /// temporaries safely.
  virtual sim::Task<Buffer> call(std::string method, View payload) = 0;

  /// Struct-level call, the one generated stubs make. The default
  /// serializes the args, goes through the byte-level call() and decodes the
  /// bytes it returns; HatConnection overrides it to serialize straight into
  /// the channel's registered request slot and decode the reply in place.
  /// An empty `read_result` (oneway) skips the decode. Both functions must
  /// stay valid until the call resolves.
  virtual sim::Task<void> call(std::string method,
                               const ArgsWriter& write_args,
                               const ResultReader& read_result) {
    thrift::TMemoryBuffer args;
    thrift::TBinaryProtocol ap(args);
    write_args(ap);
    Buffer result = co_await call(std::move(method), args.view());
    if (!read_result) co_return;
    thrift::TMemoryBuffer rb = thrift::TMemoryBuffer::wrap(result);
    thrift::TBinaryProtocol rp(rb);
    read_result(rp);
  }
};

/// Server-side method table: method name -> handler over serialized args.
/// process() parses the Thrift message envelope, writes the reply envelope,
/// and dispatches; the method appends its result struct after it (Apache
/// Thrift's TProcessor::process(in, out) shape). A method that throws gets
/// a TApplicationException reply instead.
class HatDispatcher {
 public:
  /// Takes the serialized args struct; appends the serialized result struct
  /// to `out`, which already holds the reply envelope.
  using MethodFn =
      std::function<sim::Task<void>(View args, thrift::TMemoryBuffer& out)>;

  void register_method(std::string name, MethodFn fn) {
    methods_[std::move(name)] = std::move(fn);
  }

  bool has_method(const std::string& name) const {
    return methods_.count(name) > 0;
  }

  /// Full envelope in -> full envelope out: the reply envelope and the
  /// method's result struct are written into `out`.
  sim::Task<void> process(View request, thrift::TMemoryBuffer& out) {
    thrift::TMemoryBuffer in = thrift::TMemoryBuffer::wrap(request);
    thrift::TBinaryProtocol ip(in);
    auto head = ip.readMessageBegin();

    thrift::TBinaryProtocol op(out);
    auto it = methods_.find(head.name);
    if (it == methods_.end()) {
      op.writeMessageBegin(head.name, thrift::TMessageType::kException,
                           head.seqid);
      write_application_exception(op, 1 /*UNKNOWN_METHOD*/,
                                  "unknown method: " + head.name);
      co_return;
    }
    // Undeclared exceptions escaping a handler become INTERNAL_ERROR
    // replies (Apache Thrift behaviour) rather than tearing down the
    // server's serve loop.
    op.writeMessageBegin(head.name, thrift::TMessageType::kReply,
                         head.seqid);
    try {
      co_await it->second(in.unread(), out);
    } catch (const std::exception& e) {
      out.reset();
      op.writeMessageBegin(head.name, thrift::TMessageType::kException,
                           head.seqid);
      write_application_exception(op, 6 /*INTERNAL_ERROR*/, e.what());
    }
  }

  /// Writes the call envelope, then the args struct.
  static void write_call(thrift::TProtocol& p, const std::string& method,
                         int32_t seqid, const ArgsWriter& write_args) {
    p.writeMessageBegin(method, thrift::TMessageType::kCall, seqid);
    write_args(p);
  }

  /// Builds the call envelope around serialized args.
  static Buffer make_call(const std::string& method, View args,
                          int32_t seqid) {
    thrift::TMemoryBuffer buf;
    thrift::TBinaryProtocol p(buf);
    write_call(p, method, seqid, [args](thrift::TProtocol& ap) {
      ap.buffer().write(args.data(), args.size());
    });
    return buf.take();
  }

  /// Checks the reply envelope against the call that was sent, then hands
  /// the result struct to `read_result` in place (skipped when empty).
  /// Throws TApplicationException for an error reply, a reply carrying
  /// another call's seqid, one that is not a REPLY, or one for another
  /// method.
  static void read_reply(View reply, const std::string& method,
                         int32_t seqid, const ResultReader& read_result) {
    using Kind = thrift::TApplicationException::Kind;
    thrift::TMemoryBuffer buf = thrift::TMemoryBuffer::wrap(reply);
    thrift::TBinaryProtocol p(buf);
    auto head = p.readMessageBegin();
    if (head.seqid != seqid)
      throw thrift::TApplicationException(
          Kind::kBadSequenceId, "reply seqid " + std::to_string(head.seqid) +
                                    ", expected " + std::to_string(seqid));
    if (head.type == thrift::TMessageType::kException)
      throw read_application_exception(p);
    if (head.type != thrift::TMessageType::kReply)
      throw thrift::TApplicationException(
          Kind::kInvalidMessageType,
          "reply message type " + std::to_string(int(head.type)));
    if (head.name != method)
      throw thrift::TApplicationException(
          Kind::kWrongMethodName,
          "reply for '" + head.name + "', expected '" + method + "'");
    if (read_result) read_result(p);
  }

  /// read_reply() for byte-level callers: returns a copy of the serialized
  /// result struct.
  static Buffer parse_reply(View reply, const std::string& method,
                            int32_t seqid) {
    Buffer result;
    read_reply(reply, method, seqid, [&result](thrift::TProtocol& p) {
      View rest = p.buffer().unread();
      result.assign(rest.begin(), rest.end());
    });
    return result;
  }

 private:
  static void write_application_exception(thrift::TProtocol& p, int32_t type,
                                          const std::string& what) {
    p.writeStructBegin("TApplicationException");
    p.writeFieldBegin(thrift::TType::kString, 1);
    p.writeString(what);
    p.writeFieldBegin(thrift::TType::kI32, 2);
    p.writeI32(type);
    p.writeFieldStop();
    p.writeStructEnd();
  }

  static thrift::TApplicationException read_application_exception(
      thrift::TProtocol& p) {
    std::string what = "unknown";
    int32_t type = 0;
    p.readStructBegin();
    while (true) {
      auto f = p.readFieldBegin();
      if (f.type == thrift::TType::kStop) break;
      if (f.id == 1 && f.type == thrift::TType::kString) what = p.readString();
      else if (f.id == 2 && f.type == thrift::TType::kI32) type = p.readI32();
      else p.skip(f.type);
    }
    p.readStructEnd();
    return thrift::TApplicationException(
        static_cast<thrift::TApplicationException::Kind>(type), what);
  }

  std::map<std::string, MethodFn> methods_;
};

/// Service multiplexing (Thrift's TMultiplexedProtocol/TMultiplexedProcessor
/// pair, the fourth protocol of the paper's Fig. 2 row): several services
/// share one connection by prefixing method names with "<service>:".
constexpr char kMultiplexSeparator = ':';

/// Client side: scopes every call to one service on a shared caller.
class MultiplexedCaller : public HatCaller {
 public:
  MultiplexedCaller(HatCaller& inner, std::string service)
      : inner_(inner), prefix_(std::move(service) + kMultiplexSeparator) {}

  sim::Task<Buffer> call(std::string method, View payload) override {
    return inner_.call(prefix_ + method, payload);
  }
  sim::Task<void> call(std::string method, const ArgsWriter& write_args,
                       const ResultReader& read_result) override {
    return inner_.call(prefix_ + method, write_args, read_result);
  }

 private:
  HatCaller& inner_;
  std::string prefix_;
};

/// Server side: a registration view that prefixes method names, so the
/// generated register_<Service>() helpers can bind multiple services into
/// one shared HatDispatcher. (Not a dispatcher itself — processing stays
/// with the shared inner dispatcher.)
class MultiplexedDispatcher {
 public:
  MultiplexedDispatcher(HatDispatcher& inner, std::string service)
      : inner_(inner), prefix_(std::move(service) + kMultiplexSeparator) {}

  void register_method(std::string name, HatDispatcher::MethodFn fn) {
    inner_.register_method(prefix_ + name, std::move(fn));
  }

 private:
  HatDispatcher& inner_;
  std::string prefix_;
};

}  // namespace hatrpc::core
