//===- support/Io.cpp - Process-wide I/O policy ---------------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "support/Io.h"

#include <csignal>
#include <mutex>

using namespace pira;

void io::ignoreSigpipe() {
  static std::once_flag Once;
  std::call_once(Once, [] { ::signal(SIGPIPE, SIG_IGN); });
}
