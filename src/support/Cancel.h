//===- support/Cancel.h - Cooperative request cancellation ----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative cancellation for long-running requests, in the spirit of
/// LSP's `$/cancelRequest`. A CancelToken is a cheap, copyable handle to a
/// shared atomic flag: the dispatcher hands one token to the executing
/// request, keeps a second copy, and flips it from any thread when the
/// client cancels. Analysis loops call checkpoint() at iteration
/// boundaries; a tripped token raises CancelledException, which unwinds
/// the analysis on the dispatching thread back to the dispatcher, which
/// maps it to the JSON-RPC RequestCancelled error.
///
/// A default-constructed token is inert — never cancelled, zero cost to
/// check — so every cancellable API takes `const CancelToken & = {}` and
/// existing call sites stay unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_SUPPORT_CANCEL_H
#define EASYVIEW_SUPPORT_CANCEL_H

#include <atomic>
#include <exception>
#include <memory>

namespace ev {

/// Raised by CancelToken::checkpoint() once the token is cancelled. The
/// request dispatcher catches it at the top of the handler invocation; it
/// never escapes to the transport.
class CancelledException : public std::exception {
public:
  const char *what() const noexcept override { return "request cancelled"; }
};

/// Copyable handle to a shared cancellation flag. All copies observe the
/// same flag; requestCancel() on any copy trips every checkpoint().
class CancelToken {
public:
  /// Inert token: valid() is false, cancelled() is always false.
  CancelToken() = default;

  /// \returns a live token backed by a fresh shared flag.
  static CancelToken create() {
    CancelToken T;
    T.Flag = std::make_shared<std::atomic<bool>>(false);
    return T;
  }

  /// True when this token is backed by a real flag (can be cancelled).
  bool valid() const { return Flag != nullptr; }

  /// Trips the flag. Safe from any thread; idempotent. No-op on an inert
  /// token.
  void requestCancel() const {
    if (Flag)
      Flag->store(true, std::memory_order_relaxed);
  }

  /// \returns true once requestCancel() was called on any copy.
  bool cancelled() const {
    return Flag && Flag->load(std::memory_order_relaxed);
  }

  /// Throws CancelledException when cancelled; otherwise returns. Call at
  /// loop boundaries — the check is one relaxed atomic load.
  void checkpoint() const {
    if (cancelled())
      throw CancelledException();
  }

private:
  std::shared_ptr<std::atomic<bool>> Flag;
};

} // namespace ev

#endif // EASYVIEW_SUPPORT_CANCEL_H
