// Clean twin of bs012_bad: every src/ header has an includer besides its
// own .cpp.
#pragma once

namespace fixture {

int encode(int value);

}  // namespace fixture
