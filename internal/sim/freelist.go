package sim

// FreeList recycles a component's in-flight records (cache lookups,
// MSHR entries, translations, request records) so the steady state of
// a simulation allocates nothing per access. It holds only records
// that were returned, so its size is bounded by the component's peak
// number of records in flight. Get returns a recycled record with its
// old contents; the caller sets every field it relies on.
type FreeList[T any] struct {
	free []*T
}

// Get returns a recycled record, or a new zero one when none is free.
func (f *FreeList[T]) Get() *T {
	n := len(f.free)
	if n == 0 {
		return new(T)
	}
	x := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return x
}

// Put returns x for reuse. The caller must hold no other live
// reference to it.
func (f *FreeList[T]) Put(x *T) { f.free = append(f.free, x) }
