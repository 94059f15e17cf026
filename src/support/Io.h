//===- support/Io.h - Process-wide I/O policy -------------------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SIGPIPE policy of pirac, whose reports may go to a stdout pipe.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_IO_H
#define PIRA_SUPPORT_IO_H

namespace pira {
namespace io {

/// Ignores SIGPIPE process-wide, once. A pipe reader that goes away
/// must surface as an EPIPE from the write that noticed — a structured,
/// attributable failure — not as an asynchronous process kill. Safe to
/// call from any thread, any number of times.
void ignoreSigpipe();

} // namespace io
} // namespace pira

#endif // PIRA_SUPPORT_IO_H
