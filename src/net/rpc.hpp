// Unified RPC transport over the fabric. One Rpc per endpoint owner
// (staging client or server) routes every message — typed request/response
// calls, one-way sends, and response fulfilment — through the codec, and
// owns the timeout/retry/backoff loop that used to be re-implemented by
// every caller.
//
// GCC 12 note: every public entry point is a plain-function shim over a
// private coroutine (GCC 12 double-destroys *prvalue* arguments bound to
// by-value coroutine parameters; the shim materializes caller temporaries
// into named parameters and moves them — xvalues — across the coroutine
// boundary). Keep it that way when adding entry points.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/fabric.hpp"
#include "net/message.hpp"
#include "sim/context.hpp"
#include "sim/task.hpp"

namespace dstage::net {

/// Retry discipline for a call(). The defaults reproduce the historical
/// client behavior: timeout 0 waits forever (no retries — coupling reads
/// legitimately block for long stretches), and a zero backoff re-sends
/// immediately on timeout.
struct RetryPolicy {
  /// Per-attempt response timeout; <= 0 waits forever on the first send.
  sim::Duration timeout{0};
  /// Total sends before the call gives up (first attempt included).
  int max_attempts = 6;
  /// Delay before re-sending, doubled after every failed attempt
  /// (0 = immediate re-send).
  sim::Duration backoff{0};
  /// Separate cap for memory-governor RetryLater rejections. These are
  /// answered requests, not lost ones, so they never consume timeout
  /// attempts; they resolve when consumer checkpoints let GC (or a spill)
  /// free memory, which can legitimately take many backoff rounds.
  int max_backpressure_retries = 32;
};

struct RpcStats {
  std::uint64_t calls = 0;      // call<Req>() invocations
  std::uint64_t oneways = 0;    // fire-and-forget send()s
  std::uint64_t responses = 0;  // calls answered
  std::uint64_t retries = 0;    // re-sends after a timeout
  std::uint64_t exhausted = 0;  // calls that gave up after max_attempts
  /// Backoff waits honoring a RetryLater (memory-governor backpressure).
  std::uint64_t backpressure_waits = 0;
};

/// Backpressure backoff base when the policy's backoff is 0 (immediate
/// re-send would hammer a server that just said "not now").
inline constexpr sim::Duration kBackpressureBackoff = sim::microseconds(200);

/// Responses at or below this ride the control path (RDMA completion
/// notification); larger responses pay NIC bandwidth like any bulk send.
inline constexpr std::uint64_t kControlPathBytes = 256;

class Rpc {
 public:
  Rpc(Fabric& fabric, EndpointId self) : fabric_(&fabric), self_(self) {}

  [[nodiscard]] EndpointId self() const { return self_; }
  [[nodiscard]] const RpcStats& stats() const { return stats_; }

  /// One-way message: pays send-side transport, no response expected.
  sim::Task<void> send(sim::Ctx ctx, EndpointId dst, Message message) {
    return send_impl(ctx, dst, std::move(message));
  }

  /// Typed request/response call. Fills in the request's reply slot (a
  /// fresh one per attempt, so a late response to a lost attempt cannot
  /// satisfy a retry), sends, and waits per `policy`. Throws
  /// std::runtime_error when every attempt times out.
  template <class Req>
  sim::Task<typename Req::Response> call(sim::Ctx ctx, EndpointId dst,
                                         Req request,
                                         RetryPolicy policy = {}) {
    return call_impl<Req>(ctx, dst, std::move(request), policy);
  }

  /// Server side: pay response transport for `value` (codec-sized), then
  /// fulfill the client's reply slot after the wire latency.
  template <class Resp>
  sim::Task<void> fulfill(sim::Ctx ctx, EndpointId dst, ReplyPtr<Resp> reply,
                          Resp value) {
    return fulfill_impl<Resp>(ctx, dst, std::move(reply), std::move(value));
  }

 private:
  sim::Task<void> send_impl(sim::Ctx ctx, EndpointId dst, Message message);

  template <class Req>
  sim::Task<typename Req::Response> call_impl(sim::Ctx ctx, EndpointId dst,
                                              Req request,
                                              RetryPolicy policy) {
    ++stats_.calls;
    // Cumulative counts drive the exhaustion caps; the *consecutive* streak
    // per error class drives the escalating backoff shift. A timeout after
    // a run of backpressure bounces (or vice versa) is a fresh condition —
    // carrying the other class's escalation over would jump straight to a
    // huge delay for a failure mode that has struck once.
    int timeouts = 0;
    int rejections = 0;
    int timeout_streak = 0;
    int reject_streak = 0;
    for (;;) {
      auto reply = make_reply<typename Req::Response>(*ctx.eng);
      request.reply_to = self_;
      request.reply = reply;
      // The request is retained across attempts; each send carries a copy.
      Message message{request};
      co_await fabric_->send(ctx, self_, dst, std::move(message));
      std::optional<typename Req::Response> value;
      if (policy.timeout.ns <= 0) {
        value.emplace(co_await reply->take(ctx));
      } else {
        value = co_await reply->take_for(ctx, policy.timeout);
      }
      if (!value) {
        if (++timeouts >= policy.max_attempts) {
          ++stats_.exhausted;
          throw std::runtime_error(std::string("rpc ") +
                                   message_name(request) +
                                   " timed out after retries");
        }
        ++stats_.retries;
        ++timeout_streak;
        reject_streak = 0;
        if (policy.backoff.ns > 0) {
          // Exponential backoff: backoff, 2*backoff, 4*backoff, ...
          const int shift = timeout_streak - 1 < 16 ? timeout_streak - 1 : 16;
          co_await ctx.delay(sim::Duration{policy.backoff.ns << shift});
        }
        continue;
      }
      if constexpr (requires { value->retry_later; }) {
        // Memory-governor backpressure: the server answered but refused
        // admission. Not a timeout — wait out the pressure with an
        // escalating backoff, without consuming timeout attempts.
        if (value->retry_later) {
          if (++rejections > policy.max_backpressure_retries) {
            ++stats_.exhausted;
            throw std::runtime_error(
                std::string("rpc ") + message_name(request) +
                " rejected by memory governor after retries");
          }
          ++stats_.backpressure_waits;
          ++reject_streak;
          timeout_streak = 0;
          const std::int64_t base =
              policy.backoff.ns > 0 ? policy.backoff.ns
                                    : kBackpressureBackoff.ns;
          const int shift = reject_streak - 1 < 16 ? reject_streak - 1 : 16;
          co_await ctx.delay(sim::Duration{base << shift});
          continue;
        }
      }
      ++stats_.responses;
      co_return std::move(*value);
    }
  }

  template <class Resp>
  sim::Task<void> fulfill_impl(sim::Ctx ctx, EndpointId dst,
                               ReplyPtr<Resp> reply, Resp value) {
    const std::uint64_t bytes = wire_size(value);
    auto deliver = [reply = std::move(reply),
                    v = std::move(value)]() mutable {
      reply->fulfill(std::move(v));
    };
    if (bytes <= kControlPathBytes) {
      // Small acks are RDMA completion notifications: control path only.
      co_await fabric_->notify(ctx, self_, dst, std::move(deliver));
    } else {
      co_await fabric_->transmit(ctx, self_, dst, bytes, std::move(deliver));
    }
  }

  Fabric* fabric_;
  EndpointId self_;
  RpcStats stats_;
};

}  // namespace dstage::net
