// Used module: examples/app.cpp includes it.
#pragma once

namespace fixture {

int encode(int value);

}  // namespace fixture
