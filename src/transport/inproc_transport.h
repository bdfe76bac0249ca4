// In-process transport: requests are encoded, "sent", decoded and dispatched
// to a MessageHandler directly. The encode/decode round trip is kept
// deliberately so that tests over this transport still cover the wire format.
//
// Supports fault injection: Disconnect() makes every subsequent call fail
// with UNAVAILABLE, exactly what the pager sees when a server workstation
// crashes; DropNextReply() loses a single reply to exercise timeout paths.

#ifndef SRC_TRANSPORT_INPROC_TRANSPORT_H_
#define SRC_TRANSPORT_INPROC_TRANSPORT_H_

#include <atomic>
#include <cstdint>

#include "src/transport/transport.h"

namespace rmp {

class InProcTransport final : public Transport {
 public:
  // `handler` must outlive this transport.
  explicit InProcTransport(MessageHandler* handler) : handler_(handler) {}

  Result<Message> Call(const Message& request) override;
  Status SendOneWay(const Message& request) override;

  bool connected() const override { return connected_; }
  void Close() override { connected_ = false; }

  // Fault injection.
  void Disconnect() { connected_ = false; }
  void Reconnect() { connected_ = true; }
  void DropNextReply() { drop_next_reply_ = true; }

  // Traffic accounting (bytes as they would appear on the wire), used by the
  // timing model to charge transfer time.
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t calls() const { return calls_; }

 private:
  MessageHandler* handler_;
  // Atomic: fault injection toggles it from a test thread while a background
  // caller (the HealthMonitor pump) reads it in Call.
  std::atomic<bool> connected_{true};
  bool drop_next_reply_ = false;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t calls_ = 0;
};

}  // namespace rmp

#endif  // SRC_TRANSPORT_INPROC_TRANSPORT_H_
