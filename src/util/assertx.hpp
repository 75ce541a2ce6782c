// Runtime invariant checks that stay on in release builds.
//
// Library code uses MHP_REQUIRE for precondition violations (caller bugs)
// and MHP_ENSURE for internal invariants.  Both throw so tests can assert
// on misuse without aborting the whole test binary; the exception's
// message names the failing expression, its location and the caller's
// explanation, which is what a failed campaign point reports as its error.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace mhp {

class ContractViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractViolation(os.str());
}
}  // namespace detail

}  // namespace mhp

#define MHP_REQUIRE(cond, msg)                                              \
  do {                                                                      \
    if (!(cond))                                                            \
      ::mhp::detail::contract_fail("precondition", #cond, __FILE__,         \
                                   __LINE__, (msg));                        \
  } while (0)

#define MHP_ENSURE(cond, msg)                                               \
  do {                                                                      \
    if (!(cond))                                                            \
      ::mhp::detail::contract_fail("invariant", #cond, __FILE__, __LINE__,  \
                                   (msg));                                  \
  } while (0)
