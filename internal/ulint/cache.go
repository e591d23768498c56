package ulint

import (
	"sync"

	"vax780/internal/urom"
)

// indexCache memoizes one FlowIndex per assembled ROM image. The index
// is derived purely from the immutable control store, so identity
// keying is sound: the same *urom.ROM always yields the same analysis.
var indexCache sync.Map // *urom.ROM → *FlowIndex

// IndexFor returns rom's flow index, building it at most once per
// assembled image. The CFG walk and bounds passes behind NewFlowIndex
// are the expensive part of the analyzer; the prof sampler and vaxlint
// both classify against this shared cached analysis instead of
// re-deriving it per run, and therefore cannot disagree about where a
// flow begins.
func IndexFor(rom *urom.ROM) *FlowIndex {
	if v, ok := indexCache.Load(rom); ok {
		return v.(*FlowIndex)
	}
	v, _ := indexCache.LoadOrStore(rom, NewFlowIndex(rom))
	return v.(*FlowIndex)
}
