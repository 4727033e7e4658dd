// Package mem defines the memory request type that flows through the
// simulated hierarchy (SM coalescer -> TLB/MMU -> L1 -> L2 -> platform
// backend) and the interface every level implements.
//
// Ownership rule: a request belongs to its issuer. The issuer fills
// it in, passes it down with Memory.Access, and gets it back exactly
// once through Completer.Completed. A level that completes a request
// (by calling Complete, or by posting the request as its own engine
// event) must not touch it afterwards, because the issuer may recycle
// the record from inside its Completed callback. This is what lets
// every level keep its requests on free lists instead of allocating
// one per access.
package mem

// Request is one coalesced memory access. GPU requests are 128 B
// sectors (Section III-A); prefetches and page-fault fills may be
// larger. See the package comment for who may touch a request when.
type Request struct {
	// Addr is the request address. Before translation it is a virtual
	// address; platforms that translate in the MMU rewrite it to a
	// device-physical address before the caches see it.
	Addr uint64
	// Size in bytes.
	Size int
	// Write distinguishes stores from loads.
	Write bool
	// PC is the program counter of the generating LD/ST instruction;
	// the ZnG prefetch predictor is indexed by it.
	PC uint64
	// Warp and SM identify the issuing context.
	Warp int
	SM   int
	// Prefetch marks requests injected by the read-prefetch unit.
	Prefetch bool
	// Issuer is told exactly once when the request is complete; nil
	// means nobody waits for it.
	Issuer Completer
}

// Completer is the typed completion target of a request: usually the
// issuer's own pooled record, so completion allocates nothing.
type Completer interface {
	// Completed reports that r is done. The issuer owns r again and
	// may recycle it before returning.
	Completed(r *Request)
}

// CompleterFunc adapts a function to Completer.
type CompleterFunc func(r *Request)

// Completed implements Completer.
func (f CompleterFunc) Completed(r *Request) { f(r) }

// Complete hands r back to its issuer. The level that owns r calls it
// exactly once and must not touch r afterwards.
func (r *Request) Complete() {
	if r.Issuer != nil {
		r.Issuer.Completed(r)
	}
}

// Fire makes a request its own engine event (a sim.Handler): posting
// r completes it when the event fires, so a level charges a fixed
// completion latency without allocating a callback.
func (r *Request) Fire() { r.Complete() }

// Memory is anything that can service requests: a cache level, an
// interconnect adapter, a DRAM controller, the flash backbone.
type Memory interface {
	// Access starts servicing r. Completion is signalled once through
	// r.Complete, possibly synchronously for zero-latency hits; from
	// then on r belongs to its issuer again.
	Access(r *Request)
}

// Func adapts a function to the Memory interface.
type Func func(r *Request)

// Access implements Memory.
func (f Func) Access(r *Request) { f(r) }

// PageBytes4K is the 4 KB page size shared by the MMU and Z-NAND.
const PageBytes4K = 4096

// LineAddr returns the address of the line of size lineBytes
// containing addr. lineBytes must be a power of two.
func LineAddr(addr uint64, lineBytes int) uint64 {
	return addr &^ (uint64(lineBytes) - 1)
}

// PageAddr returns the 4 KB-aligned page address containing addr.
func PageAddr(addr uint64, pageBytes int) uint64 {
	return addr &^ (uint64(pageBytes) - 1)
}
