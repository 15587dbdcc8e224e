//===- support/FileIo.h - Whole-file read/write helpers -------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary-safe whole-file helpers used by the CLI tool and examples.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_SUPPORT_FILEIO_H
#define EASYVIEW_SUPPORT_FILEIO_H

#include "support/Result.h"

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ev {

/// Reads the whole file at \p Path.
Result<std::string> readFile(const std::string &Path);

/// True when \p Path names an existing directory.
bool isDirectory(const std::string &Path);

/// Lists the regular files directly inside \p Path (no recursion, no "."
/// entries), sorted by name so every traversal is deterministic. Entries
/// are returned as full paths.
Result<std::vector<std::string>> listDirectory(const std::string &Path);

/// Writes \p Contents to \p Path, replacing any existing file.
Result<bool> writeFile(const std::string &Path, std::string_view Contents);

/// Bounded exponential backoff for transient I/O failures (network file
/// systems, editors saving over the profile mid-read, fault injection).
struct RetryPolicy {
  unsigned MaxAttempts = 3;       ///< Total attempts, including the first.
  uint64_t InitialBackoffMs = 10; ///< Delay before the second attempt.
  uint64_t MaxBackoffMs = 250;    ///< Ceiling for the doubling backoff.
};

/// Reads \p Path, retrying per \p Policy when the read fails. Each retry
/// waits InitialBackoffMs * 2^(attempt-1), capped at MaxBackoffMs. The
/// final error message reports how many attempts were made.
Result<std::string> readFileWithRetry(const std::string &Path,
                                      const RetryPolicy &Policy = {});

/// A read-only memory mapping of a whole file (the out-of-core profile
/// store maps spilled profile blocks back without a decode pass). The
/// mapping is released on destruction; moves transfer ownership. A
/// zero-length file yields a valid mapping with empty bytes() and no
/// kernel mapping at all.
class MappedFile {
public:
  MappedFile() = default;
  MappedFile(MappedFile &&Other) noexcept;
  MappedFile &operator=(MappedFile &&Other) noexcept;
  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;
  ~MappedFile();

  /// Maps \p Path read-only. The open is EINTR-safe and the size comes
  /// from fstat on the open descriptor, so the mapping can never be
  /// silently shorter than bytes() claims. When \p ExpectedBytes is
  /// nonzero, a file of any other size is rejected as truncated/corrupt
  /// instead of being mapped.
  static Result<MappedFile> map(const std::string &Path,
                                size_t ExpectedBytes = 0);

  /// The mapped contents; empty for a zero-length file.
  std::string_view bytes() const {
    return {static_cast<const char *>(Base), Size};
  }
  size_t size() const { return Size; }
  /// True once map() succeeded (including the zero-length case).
  bool valid() const { return Valid; }

private:
  void *Base = nullptr;
  size_t Size = 0;
  bool Valid = false;
};

/// Grows (never shrinks) \p Path to at least \p Bytes, creating it when
/// absent. Used to reserve spill-file extents up front so later segment
/// dumps cannot fail halfway through on a full disk. EINTR-safe.
Result<bool> preallocateFile(const std::string &Path, size_t Bytes);

/// Test/chaos hook: decides whether the read of \p Path on \p Attempt
/// (0-based) should be failed artificially; on injection it fills
/// \p Message with the simulated diagnostic and returns true.
using ReadFaultHook =
    std::function<bool(const std::string &Path, unsigned Attempt,
                       std::string &Message)>;

/// Installs (or, with nullptr, clears) the read fault hook. Faults apply
/// to readFile and therefore to readFileWithRetry's attempts.
void setReadFaultHook(ReadFaultHook Hook);

/// Replaces the backoff sleep (milliseconds) used between retries; pass
/// nullptr to restore the real clock. Tests install a recorder so chaos
/// schedules stay deterministic and fast.
void setRetrySleepHook(std::function<void(uint64_t)> Hook);

} // namespace ev

#endif // EASYVIEW_SUPPORT_FILEIO_H
