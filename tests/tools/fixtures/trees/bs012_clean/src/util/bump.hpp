// Header-only helper whose one includer is another module's .cpp — that
// counts as a caller.
#pragma once

namespace fixture {

inline int bump(int value) { return value + 1; }

}  // namespace fixture
