// A test includer does not count: the tree is linted as src + examples.
#include "flow/orphan.hpp"

int main() { return fixture::decode_twin(1); }
