#include "flow/codec.hpp"

namespace fixture {

int encode(int value) { return value + 1; }

}  // namespace fixture
