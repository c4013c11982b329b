// Checked runtime assertions for the osp library.
//
// The library validates untrusted inputs (instances arriving online,
// user-supplied parameters) with OSP_REQUIRE, which throws and therefore
// stays active in release builds.  Internal invariants use OSP_ASSERT,
// which compiles away under NDEBUG.
#pragma once

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

namespace osp {

/// Thrown when a precondition on user-supplied data is violated.
/// what() is the full diagnostic (failed expression and source location
/// included); message() is the part meant for a user, which is what a
/// command-line front end prints.
class RequireError : public std::logic_error {
 public:
  explicit RequireError(const std::string& what)
      : RequireError(what, what) {}
  RequireError(const std::string& what, const std::string& message)
      : std::logic_error(what),
        message_(std::make_shared<const std::string>(message)) {}

  const std::string& message() const noexcept { return *message_; }

 private:
  // Shared so that copying the exception cannot throw.
  std::shared_ptr<const std::string> message_;
};

namespace detail {

[[noreturn]] inline void require_fail(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "requirement failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw RequireError(os.str(), msg.empty()
                                   ? std::string("requirement failed: ") + expr
                                   : msg);
}

}  // namespace detail
}  // namespace osp

/// Precondition check on external input; throws osp::RequireError on failure.
#define OSP_REQUIRE(expr)                                              \
  do {                                                                 \
    if (!(expr))                                                       \
      ::osp::detail::require_fail(#expr, __FILE__, __LINE__, {});      \
  } while (0)

/// Precondition check with an explanatory message (streamed).  The local
/// stream carries a macro-private name: a plain `os_` shadows same-named
/// members in classes whose methods use the macro (ShardSink::os_ did).
#define OSP_REQUIRE_MSG(expr, msg)                                     \
  do {                                                                 \
    if (!(expr)) {                                                     \
      std::ostringstream osp_require_os_;                              \
      osp_require_os_ << msg;                                          \
      ::osp::detail::require_fail(#expr, __FILE__, __LINE__,           \
                                  osp_require_os_.str());              \
    }                                                                  \
  } while (0)

/// Internal invariant; disabled when NDEBUG is defined.
#ifdef NDEBUG
#define OSP_ASSERT(expr) ((void)0)
#else
#define OSP_ASSERT(expr) OSP_REQUIRE(expr)
#endif
