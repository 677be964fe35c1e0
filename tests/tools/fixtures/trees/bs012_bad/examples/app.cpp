#include "flow/codec.hpp"

int main() { return fixture::encode(0) == 1 ? 0 : 1; }
