#include "textflag.h"

// func getgTLS() unsafe.Pointer
TEXT ·getgTLS(SB), NOSPLIT, $0-8
	MOVQ (TLS), AX
	MOVQ AX, ret+0(FP)
	RET

// func framePCs() (pc1, pc2 uintptr)
//
// With no frame of its own, the stub sees its caller's frame pointer in
// BP. Each amd64 Go frame saves the frame pointer of the frame above it at
// 0(BP) and has its return address at 8(BP): the stub skips its caller's
// frame and returns the return addresses of the next two frames up.
TEXT ·framePCs(SB), NOSPLIT, $0-16
	MOVQ 0(BP), AX
	MOVQ 8(AX), BX
	MOVQ 0(AX), AX
	MOVQ 8(AX), CX
	MOVQ BX, pc1+0(FP)
	MOVQ CX, pc2+8(FP)
	RET
