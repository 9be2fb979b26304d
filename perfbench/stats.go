package main

import (
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when nothing was counted (a result line must never
// carry NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// footprint tracks the resident memory of the Go runtime (memory mapped
// from the OS and not released back to it) inside timed windows, from
// samples taken every few milliseconds and at each window's edges. It
// keeps each window's peak; the median of those peaks is what a study op
// typically needs, which a single process-wide maximum (ru_maxrss) would
// leave to the luck of where a collection fell.
type footprint struct {
	mu    sync.Mutex
	on    bool
	cur   uint64    // peak of the open window
	peaks []float64 // peak of every closed window, MB
	stop  chan struct{}
	done  chan struct{}
}

func startFootprint() *footprint {
	f := &footprint{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-tick.C:
				v := residentBytes()
				f.mu.Lock()
				if f.on {
					f.cur = max(f.cur, v)
				}
				f.mu.Unlock()
			}
		}
	}()
	return f
}

func residentBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// measure opens (on) or closes a window.
func (f *footprint) measure(on bool) {
	v := residentBytes()
	f.mu.Lock()
	defer f.mu.Unlock()
	if on {
		f.cur = v
	} else {
		f.peaks = append(f.peaks, float64(max(f.cur, v))/mib)
	}
	f.on = on
}

// close stops the sampler and returns the median window peak in MB.
func (f *footprint) close() float64 {
	close(f.stop)
	<-f.done
	return median(f.peaks)
}

// retainedHeapMB forces a collection and reports the live heap: what
// the process keeps once everything unreachable is gone.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / mib
}

// dirUsage counts the regular files under dir and their total size.
func dirUsage(dir string) (files int, bytes int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	return files, bytes, err
}

// fsType names the filesystem holding path, from its statfs magic. The
// store's filesystem decides what a file create costs, so every result
// records it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}
