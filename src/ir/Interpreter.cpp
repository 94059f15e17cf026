//===- ir/Interpreter.cpp - Sequential reference executor -----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"

#include "ir/Function.h"
#include "support/Rng.h"

#include <cassert>
#include <cstdint>

using namespace pira;

ExecState pira::makeInitialState(const Function &F, uint64_t Seed) {
  ExecState State;
  State.Regs.assign(F.numRegs(), 0);
  Rng R(Seed);
  for (const ArrayDecl &A : F.arrays()) {
    std::vector<int64_t> Data(A.Size);
    for (int64_t &V : Data)
      V = R.nextInRange(-1000, 1000);
    State.Arrays[A.Name] = std::move(Data);
  }
  return State;
}

bool pira::resolveAddress(const Instruction &I, const ExecState &State,
                          std::string &Array, size_t &Slot) {
  assert(I.isMemory() && "not a memory instruction");
  auto It = State.Arrays.find(I.arraySymbol());
  if (It == State.Arrays.end() || It->second.empty())
    return false;
  Reg Index = NoReg;
  if (I.opcode() == Opcode::Load)
    Index = I.uses().empty() ? NoReg : I.uses()[0];
  else
    Index = I.uses().size() > 1 ? I.uses()[1] : NoReg;
  int64_t Addr = I.imm();
  if (Index != NoReg)
    Addr += State.Regs[Index];
  int64_t Size = static_cast<int64_t>(It->second.size());
  Addr %= Size;
  if (Addr < 0)
    Addr += Size;
  Array = I.arraySymbol();
  Slot = static_cast<size_t>(Addr);
  return true;
}

/// Resolves a memory operand to an element slot, wrapping modulo the array
/// size so execution is total.
static int64_t *addressSlot(const Instruction &I, ExecState &State) {
  std::string Array;
  size_t Slot = 0;
  if (!resolveAddress(I, State, Array, Slot))
    return nullptr;
  return &State.Arrays[Array][Slot];
}

void pira::executeInstruction(const Instruction &I, const Function &F,
                              ExecState &State) {
  (void)F;
  auto U = [&](unsigned Idx) -> int64_t {
    assert(Idx < I.uses().size() && "operand index out of range");
    return State.Regs[I.uses()[Idx]];
  };
  auto SetDef = [&](int64_t V) { State.Regs[I.def()] = V; };
  // Arithmetic wraps as two's complement: it is done in uint64_t, where
  // overflow is defined, and converted back (a modular conversion since
  // C++20). Signed overflow would be undefined behaviour.
  auto W = [&](unsigned Idx) { return static_cast<uint64_t>(U(Idx)); };
  auto SetWrapped = [&](uint64_t V) { SetDef(static_cast<int64_t>(V)); };

  switch (I.opcode()) {
  case Opcode::LoadImm:
    SetDef(I.imm());
    break;
  case Opcode::Copy:
    SetDef(U(0));
    break;
  case Opcode::Add:
  case Opcode::FAdd:
    SetWrapped(W(0) + W(1));
    break;
  case Opcode::Sub:
  case Opcode::FSub:
    SetWrapped(W(0) - W(1));
    break;
  case Opcode::Mul:
  case Opcode::FMul:
    SetWrapped(W(0) * W(1));
    break;
  case Opcode::Div:
  case Opcode::FDiv:
    // The two quotients int64_t cannot represent are defined as 0:
    // division by zero, and INT64_MIN / -1 (which would be 2^63).
    SetDef(U(1) == 0 || (U(0) == INT64_MIN && U(1) == -1) ? 0
                                                          : U(0) / U(1));
    break;
  case Opcode::Neg:
  case Opcode::FNeg:
    SetWrapped(0 - W(0));
    break;
  case Opcode::And:
    SetDef(U(0) & U(1));
    break;
  case Opcode::Or:
    SetDef(U(0) | U(1));
    break;
  case Opcode::Xor:
    SetDef(U(0) ^ U(1));
    break;
  case Opcode::Shl:
    SetWrapped(W(0) << (U(1) & 63));
    break;
  case Opcode::Shr:
    SetDef(U(0) >> (U(1) & 63));
    break;
  case Opcode::CmpEq:
    SetDef(U(0) == U(1) ? 1 : 0);
    break;
  case Opcode::CmpLt:
    SetDef(U(0) < U(1) ? 1 : 0);
    break;
  case Opcode::CmpLe:
    SetDef(U(0) <= U(1) ? 1 : 0);
    break;
  case Opcode::FMA:
    SetWrapped(W(0) * W(1) + W(2));
    break;
  case Opcode::Load: {
    int64_t *Slot = addressSlot(I, State);
    SetDef(Slot != nullptr ? *Slot : 0);
    break;
  }
  case Opcode::Store: {
    if (int64_t *Slot = addressSlot(I, State))
      *Slot = U(0);
    break;
  }
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
    assert(false && "control opcodes are handled by the interpreter loop");
    break;
  }
}

ExecResult pira::interpret(const Function &F, ExecState Initial,
                           uint64_t MaxSteps) {
  ExecResult Result;
  Result.Final = std::move(Initial);
  ExecState &State = Result.Final;
  if (State.Regs.size() < F.numRegs())
    State.Regs.resize(F.numRegs(), 0);

  if (F.numBlocks() == 0) {
    Result.Error = "function has no blocks";
    return Result;
  }

  unsigned Block = 0;
  unsigned Idx = 0;
  while (Result.Steps < MaxSteps) {
    const BasicBlock &BB = F.block(Block);
    if (Idx >= BB.size()) {
      Result.Error = "fell off the end of block " + BB.name();
      return Result;
    }
    const Instruction &I = BB.inst(Idx);
    ++Result.Steps;

    if (!I.isTerminator()) {
      executeInstruction(I, F, State);
      ++Idx;
      continue;
    }
    switch (I.opcode()) {
    case Opcode::Br:
      Block = I.targets()[0];
      Idx = 0;
      break;
    case Opcode::CondBr:
      Block = State.Regs[I.uses()[0]] != 0 ? I.targets()[0] : I.targets()[1];
      Idx = 0;
      break;
    case Opcode::Ret:
      Result.Completed = true;
      if (!I.uses().empty()) {
        Result.HasReturnValue = true;
        Result.ReturnValue = State.Regs[I.uses()[0]];
      }
      return Result;
    default:
      assert(false && "unknown terminator");
      return Result;
    }
  }
  Result.Error = "step budget exhausted";
  return Result;
}

bool pira::statesEquivalent(const ExecState &A, const ExecState &B) {
  return A.Arrays == B.Arrays;
}
