#ifndef GAIA_UTIL_ARENA_H_
#define GAIA_UTIL_ARENA_H_

namespace gaia::util {

/// \brief No-op scope kept only so gaia_bench/replay.cc, which still opens
/// two of these, compiles unchanged. Tensor storage is a plain
/// std::vector<float>; there is no tensor allocator behind this. The next
/// change to gaia_bench deletes both this header and those two locals.
///
/// The constructor is user-provided so the locals count as used under -Wall.
class ArenaScope {
 public:
  ArenaScope() {}
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
};

}  // namespace gaia::util

#endif  // GAIA_UTIL_ARENA_H_
