// SEEDED BS012: only its own orphan.cpp and a test include this header; the
// test is not linted, so no caller is in view.
#pragma once

namespace fixture {

int decode_twin(int value);

}  // namespace fixture
