#include "flow/codec.hpp"

#include "util/bump.hpp"

namespace fixture {

int encode(int value) { return bump(value); }

}  // namespace fixture
