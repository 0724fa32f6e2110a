// gtest value printer for mem::MemoryPath: a path prints as its table label
// ("MMEM", "CXL-r", ...), so the parameterised tests that sweep the paths
// are named by label. Every test file that hands a MemoryPath to gtest
// includes this, so each prints it the same way.
#ifndef CXL_EXPLORER_TESTS_MEM_MEMORY_PATH_PRINTER_H_
#define CXL_EXPLORER_TESTS_MEM_MEMORY_PATH_PRINTER_H_

#include <ostream>

#include "src/mem/access.h"

namespace cxl::mem {

inline void PrintTo(MemoryPath path, std::ostream* os) { *os << PathLabel(path); }

}  // namespace cxl::mem

#endif  // CXL_EXPLORER_TESTS_MEM_MEMORY_PATH_PRINTER_H_
