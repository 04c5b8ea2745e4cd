package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// recordLog is one client's append-only log of finished operations. It
// lives in anonymous memory outside the Go heap: the log grows with
// throughput, and inside the heap it would count in heap_live_mb, so a
// faster system would read as a bigger one. opRecord holds no pointers, so
// the collector need not see it.
type recordLog struct {
	mem []byte
	n   int
}

const recordSize = int(unsafe.Sizeof(opRecord{}))

func (l *recordLog) add(r opRecord) error {
	if (l.n+1)*recordSize > len(l.mem) {
		mem, err := syscall.Mmap(-1, 0, max(1<<20, 2*len(l.mem)),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return fmt.Errorf("growing the operation log: %w", err)
		}
		copy(mem, l.mem)
		l.unmap()
		l.mem = mem
	}
	*(*opRecord)(unsafe.Pointer(&l.mem[l.n*recordSize])) = r
	l.n++
	return nil
}

// drain copies the log onto the Go heap and releases its memory.
func (l *recordLog) drain() []opRecord {
	var out []opRecord
	if l.n > 0 {
		out = append(out, unsafe.Slice((*opRecord)(unsafe.Pointer(&l.mem[0])), l.n)...)
	}
	l.unmap()
	l.n = 0
	return out
}

func (l *recordLog) unmap() {
	if l.mem != nil {
		_ = syscall.Munmap(l.mem) // only fails for a range that is not mapped
		l.mem = nil
	}
}
