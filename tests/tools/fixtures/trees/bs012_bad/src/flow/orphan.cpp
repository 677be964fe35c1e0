#include "flow/orphan.hpp"

namespace fixture {

int decode_twin(int value) { return value - 1; }

}  // namespace fixture
