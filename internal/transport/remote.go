package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"

	"pti/internal/bufpool"
	"pti/internal/conform"
	"pti/internal/proxy"
	"pti/internal/typedesc"
	"pti/internal/wire"
)

// Remoting errors.
var (
	ErrNoSuchExport = errors.New("transport: no such exported object")
)

// valueProg picks the program that encodes v. A registered entry's
// program for v's type comes first and is looked up per call:
// registration may change after a plan was built, and a registered
// program stamps the registered name. Otherwise planned serves, and
// EncodeCompiled falls back to the reflective encoder when v's
// dynamic type is not the one it was compiled for.
func (p *Peer) valueProg(planned *wire.Program, v interface{}) *wire.Program {
	if t := reflect.TypeOf(v); t != nil {
		if e, ok := p.reg.LookupGo(t); ok {
			if prog, err := e.Program(); err == nil {
				return prog
			}
		}
	}
	return planned
}

// appendValues appends one chunk per value to the pooled scratch sc:
// each value is encoded straight into sc — through planned[i] when a
// plan covers every value (valueProg decides) — behind a 4-byte length
// that is patched in place afterwards. On failure it reports the index
// of the value that failed.
func (p *Peer) appendValues(sc *bufpool.Buffer, planned []*wire.Program, vals []interface{}) (int, error) {
	for i, v := range vals {
		var prog *wire.Program
		if len(planned) == len(vals) {
			prog = planned[i]
		}
		at := len(sc.B)
		buf, err := p.codec.EncodeCompiled(p.valueProg(prog, v), append(sc.B, 0, 0, 0, 0), v)
		if err != nil {
			return i, err
		}
		binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
		sc.B = buf
	}
	return 0, nil
}

// Invoke bodies are runs of chunks (appendChunk). A MsgInvokeRequest
// carries the export name, the method name in the server's vocabulary
// and one codec-encoded chunk per argument, so the server materializes
// each argument against its target parameter type; a MsgInvokeReply
// carries one codec-encoded chunk per result, and a failed invocation
// answers MsgError. The codec sees only argument and result values.
//
// parseInvokeRequest splits a request body into the export name, the
// method name and the run of argument chunks, which it counts. The
// framing of the whole body is checked before any argument is decoded.
func parseInvokeRequest(body []byte) (object, method, args []byte, n int, err error) {
	if object, args, err = readChunk(body); err == nil {
		method, args, err = readChunk(args)
	}
	for rest := args; err == nil && len(rest) > 0; n++ {
		_, rest, err = readChunk(rest)
	}
	return object, method, args, n, err
}

// compileAll compiles one codec program per type. Plans compile
// unnamed programs: decoding does not depend on the root's wire name,
// and encoding consults the registry first (valueProg).
func compileAll(types ...reflect.Type) []*wire.Program {
	progs := make([]*wire.Program, len(types))
	for i, t := range types {
		progs[i], _ = wire.CompileProgram(t)
	}
	return progs
}

// exportMethods resolves the method set of an exported target's
// (pointer) type once, so handleInvoke neither looks methods up by
// name nor picks codec programs per call.
func exportMethods(t reflect.Type) map[string]exportMethod {
	methods := make(map[string]exportMethod, t.NumMethod())
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		ft := m.Type
		em := exportMethod{name: m.Name, in: make([]reflect.Type, ft.NumIn()-1)}
		for j := range em.in {
			em.in[j] = ft.In(j + 1) // In(0) is the receiver
		}
		em.progs = compileAll(em.in...)
		methods[m.Name] = em
	}
	return methods
}

// Export makes v remotely invocable under the given name
// (pass-by-reference semantics, Section 6). The object's type is
// described so remote peers can run the conformance check before
// invoking.
func (p *Peer) Export(name string, v interface{}) error {
	if name == "" {
		return fmt.Errorf("transport: export with empty name")
	}
	inv, err := proxy.NewInvoker(v, nil)
	if err != nil {
		return err
	}
	t := reflect.TypeOf(v)
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	var desc *typedesc.TypeDescription
	if e, ok := p.reg.LookupGo(t); ok {
		desc = e.Description
	} else {
		desc, err = typedesc.Describe(t)
		if err != nil {
			return fmt.Errorf("transport: describe export: %w", err)
		}
		_ = p.cat.Learn(desc)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exports[name] = &export{invoker: inv, desc: desc, methods: exportMethods(reflect.TypeOf(inv.Target()))}
	return nil
}

// Unexport removes a previously exported object.
func (p *Peer) Unexport(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.exports, name)
}

func (p *Peer) lookupExport(name []byte) (*export, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.exports[string(name)]
	return e, ok
}

// RemoteRef is a client-side proxy to an object exported by the peer
// at the other end of a Conn. Invocations are expressed in the
// expected type's vocabulary; the conformance mapping renames methods
// and permutes arguments before they travel.
type RemoteRef struct {
	conn    *Conn
	name    string
	mapping *conform.Mapping
	desc    *typedesc.TypeDescription // remote object's description
	plans   map[string]callPlan       // by expected method name
}

// callPlan is what Remote resolves ahead of the calls for one expected
// method: a codec program per parameter, in the candidate's argument
// order, and the result type names the remote description declares
// for the candidate method (pointers stripped).
type callPlan struct {
	args    []*wire.Program
	results []string
}

// callPlans builds the call plan of every method of the expected type
// t that the mapping carries onto the remote type.
func callPlans(t reflect.Type, m *conform.Mapping, remote *typedesc.TypeDescription) map[string]callPlan {
	recv := 0
	if t.Kind() != reflect.Interface {
		if t.Kind() != reflect.Ptr {
			t = reflect.PtrTo(t) // pointer-receiver methods too
		}
		recv = 1 // a concrete method's In(0) is the receiver
	}
	plans := make(map[string]callPlan, t.NumMethod())
	for i := 0; i < t.NumMethod(); i++ {
		meth := t.Method(i)
		cand, perm := meth.Name, []int(nil)
		if m != nil {
			mm, ok := m.MethodFor(meth.Name)
			if !ok {
				continue
			}
			cand = mm.Candidate
			if !m.Identity {
				perm = mm.Perm
			}
		}
		in := make([]reflect.Type, meth.Type.NumIn()-recv)
		for j := range in {
			slot := j
			if len(perm) == len(in) {
				slot = perm[j]
			}
			in[slot] = meth.Type.In(j + recv)
		}
		plan := callPlan{args: compileAll(in...)}
		for _, rm := range remote.Methods {
			if rm.Name == cand {
				for _, ret := range rm.Returns {
					plan.results = append(plan.results, strings.TrimLeft(ret.Name, "*"))
				}
				break
			}
		}
		plans[meth.Name] = plan
	}
	return plans
}

// Remote resolves the named exported object on the other side of c
// and checks that its type conforms to expected (an instance,
// reflect.Type, or pointer to interface). This is the Section 6
// scenario: "a component querying a type T1, and T1 happens to match
// a lent remote server's type T2 implicitly (only)".
func (p *Peer) Remote(c *Conn, name string, expected interface{}) (*RemoteRef, error) {
	reply, err := c.request(MsgLookupRequest, []byte(name))
	if err != nil {
		return nil, err
	}
	remoteRef, err := decodeRef(reply.Body)
	if err != nil {
		return nil, err
	}
	// Counted as fabric work like a handler, so the fetch's park
	// inside is balanced. Only the fetch: the lookup above waits on a
	// reply the virtual clock must be free to deliver.
	p.busy(1)
	remoteDesc, err := p.ensureDescription(c, remoteRef)
	p.busy(-1)
	if err != nil {
		return nil, err
	}

	t, ok := expected.(reflect.Type)
	if !ok {
		t = reflect.TypeOf(expected)
	}
	if t == nil {
		return nil, fmt.Errorf("transport: Remote(nil expected)")
	}
	if t.Kind() == reflect.Ptr && t.Elem().Kind() == reflect.Interface {
		t = t.Elem()
	}
	var expDesc *typedesc.TypeDescription
	if e, ok := p.reg.LookupGo(t); ok {
		expDesc = e.Description
	} else {
		expDesc, err = typedesc.Describe(t)
		if err != nil {
			return nil, err
		}
		_ = p.cat.Learn(expDesc)
	}

	r, err := p.checker.Check(remoteDesc, expDesc)
	if err != nil {
		return nil, err
	}
	if !r.Conformant {
		return nil, fmt.Errorf("%w: %s vs %s: %s", ErrNoConformance, remoteDesc.Name, expDesc.Name, r.Reason)
	}
	return &RemoteRef{conn: c, name: name, mapping: r.Mapping, desc: remoteDesc,
		plans: callPlans(t, r.Mapping, remoteDesc)}, nil
}

// TypeName returns the remote object's type name.
func (r *RemoteRef) TypeName() string { return r.desc.Name }

// Mapping returns the conformance mapping in force for this
// reference.
func (r *RemoteRef) Mapping() *conform.Mapping { return r.mapping }

// Call invokes the expected-type method with expected-order
// arguments. The mapping translates the method name and argument
// order; arguments and results are serialized with the peer's codec.
func (r *RemoteRef) Call(method string, args ...interface{}) ([]interface{}, error) {
	pc, err := r.CallAsync(method, args...)
	if err != nil {
		return nil, err
	}
	return pc.Wait()
}

// CallAsync starts an invocation and returns without waiting for the
// reply, so callers can keep several invokes in flight on one
// connection (replies correlate by seq and complete out of order — a
// slow method does not head-of-line-block fast ones behind it). The
// connection's pacer bounds how many may be in flight: a full window
// blocks here until a slot frees. Errors that need no round trip
// (unknown method, arity mismatch, encode failure) surface here;
// everything else comes from Wait.
func (r *RemoteRef) CallAsync(method string, args ...interface{}) (*PendingCall, error) {
	sc := bufpool.Get()
	defer bufpool.Put(sc)
	plan, err := r.appendRequest(sc, method, args)
	if err != nil {
		return nil, err
	}
	body := append([]byte(nil), sc.B...)

	if err := r.conn.pacer.acquire(); err != nil {
		return nil, err
	}
	// The pacer slot is released when the exchange settles (reply
	// arrived or failed), via the startRequest hook — including on
	// immediate send failure.
	pr, err := r.conn.startRequest(MsgInvokeRequest, body, r.conn.pacer.releaseFn)
	if err != nil {
		return nil, err
	}
	return &PendingCall{ref: r, pr: pr, resultTypes: plan.results}, nil
}

// appendRequest appends the request body of an invocation of the
// expected-type method to sc: the mapping translates the method name
// and argument order, and the call plan, which it returns, encodes the
// arguments.
func (r *RemoteRef) appendRequest(sc *bufpool.Buffer, method string, args []interface{}) (callPlan, error) {
	name := method
	ordered := args
	if r.mapping != nil {
		mm, ok := r.mapping.MethodFor(method)
		if !ok {
			return callPlan{}, fmt.Errorf("%w: %s", proxy.ErrNoSuchMethod, method)
		}
		name = mm.Candidate
		// An identity mapping carries no Perm (it does not know the
		// arity; the server's typed check still applies). An explicit
		// mapping's Perm is authoritative: a length mismatch is an
		// arity error, never a silent unpermuted send.
		if !r.mapping.Identity {
			if len(mm.Perm) != len(args) {
				return callPlan{}, fmt.Errorf("%w: %s takes %d args, got %d",
					ErrArityMismatch, method, len(mm.Perm), len(args))
			}
			if len(args) > 0 {
				ordered = make([]interface{}, len(args))
				for i, slot := range mm.Perm {
					ordered[slot] = args[i]
				}
			}
		}
	}

	plan := r.plans[method]
	sc.B = appendChunk(appendChunk(sc.B, r.name), name)
	if i, err := r.conn.peer.appendValues(sc, plan.args, ordered); err != nil {
		return callPlan{}, fmt.Errorf("transport: encode arg %d: %w", i, err)
	}
	return plan, nil
}

// PendingCall is one in-flight pipelined invocation. Wait is safe to
// call from any goroutine, more than once; the result is resolved
// exactly once.
type PendingCall struct {
	ref *RemoteRef
	// resultTypes are the result type names the remote declares.
	resultTypes []string

	pr      *pendingReply
	once    sync.Once
	results []interface{}
	err     error
}

// Wait blocks until the invocation's reply arrives (or its timeout,
// counted from the send, expires) and returns the results.
func (pc *PendingCall) Wait() ([]interface{}, error) {
	pc.once.Do(func() { pc.results, pc.err = pc.finish() })
	return pc.results, pc.err
}

func (pc *PendingCall) finish() ([]interface{}, error) {
	p := pc.ref.conn.peer
	reply, err := pc.pr.await()
	if err != nil {
		return nil, err
	}
	results := make([]interface{}, 0, len(pc.resultTypes))
	for rest := reply.Body; len(rest) > 0; {
		var raw []byte
		if raw, rest, err = readChunk(rest); err != nil {
			return nil, fmt.Errorf("transport: decode invoke reply: %w", err)
		}
		i := len(results)
		if i < len(pc.resultTypes) {
			if v, ok := p.typedResult(pc.resultTypes[i], raw); ok {
				results = append(results, v)
				continue
			}
		}
		gv, err := p.codec.DecodeGeneric(raw)
		if err != nil {
			return nil, fmt.Errorf("transport: decode result %d: %w", i, err)
		}
		results = append(results, p.nativizeResult(gv))
	}
	return results, nil
}

// typedResult decodes a result whose declared type is the given name
// straight into the struct type registered locally under that name,
// through the binder's compiled decoder. Registration is consulted per
// call, as nativizeResult does, because it may change after Remote.
// ok=false — no struct registered under the name, a non-conformant
// pair, or a payload the compiled decoder declines (another root type
// name among them) — leaves the result to DecodeGeneric and
// nativizeResult, which stay the authority.
func (p *Peer) typedResult(declared string, raw []byte) (interface{}, bool) {
	ref := typedesc.TypeRef{Name: declared}
	entry, ok := p.reg.Lookup(ref)
	if !ok || entry.Type.Kind() != reflect.Struct {
		return nil, false
	}
	v, _, ok := p.binder.DeserializeCompiled(p.codec, entry, raw, ref)
	return v, ok
}

// nativizeResult converts a generic result into the most useful local
// form: registered object types are bound, primitives pass through.
func (p *Peer) nativizeResult(gv wire.Value) interface{} {
	obj, ok := gv.(*wire.Object)
	if !ok {
		return gv
	}
	if entry, found := p.reg.Lookup(typedesc.TypeRef{Name: obj.TypeName}); found {
		if bound, _, err := p.binder.Bind(obj, entry.Description.Ref()); err == nil {
			return bound
		}
	}
	return obj
}

// handleInvoke services MsgInvokeRequest: the reply body is the
// result chunks invoke writes, and any failure answers MsgError.
func (p *Peer) handleInvoke(c *Conn, m *Message) {
	p.stats.add(cInvokes, 1)
	sc := bufpool.Get()
	defer bufpool.Put(sc)
	if err := p.invoke(sc, m.Body); err != nil {
		_ = c.replyError(m, err)
		return
	}
	_ = c.reply(m, MsgInvokeReply, append([]byte(nil), sc.B...))
}

// invoke decodes a request body's arguments against the target
// method's parameter types, calls through the identity invoker and
// appends the result chunks to sc.
func (p *Peer) invoke(sc *bufpool.Buffer, body []byte) error {
	object, method, raw, n, err := parseInvokeRequest(body)
	if err != nil {
		return fmt.Errorf("bad invoke payload: %v", err)
	}
	exp, ok := p.lookupExport(object)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchExport, object)
	}
	meth, ok := exp.methods[string(method)]
	if !ok {
		return fmt.Errorf("%w: %s on %s", proxy.ErrNoSuchMethod, method, exp.desc.Name)
	}
	if len(meth.in) != n {
		return fmt.Errorf("%w: %s takes %d args, got %d", ErrArityMismatch, method, len(meth.in), n)
	}
	args := make([]interface{}, n)
	for i := range args {
		var arg []byte
		arg, raw, _ = readChunk(raw) // framing checked by parseInvokeRequest
		av, err := p.binder.DecodeValue(p.codec, meth.progs[i], arg, meth.in[i])
		if err != nil {
			return fmt.Errorf("arg %d: %v", i, err)
		}
		args[i] = av
	}

	p.emit(EventInvoked, exp.desc.Ref(), meth.name)
	results, err := p.callExport(exp, meth.name, args)
	if err != nil {
		return err
	}
	if i, err := p.appendValues(sc, nil, results); err != nil {
		return fmt.Errorf("encode result %d: %v", i, err)
	}
	return nil
}

// callExport runs the exported method, converting a panic into an
// error so a misbehaving method produces an error reply instead of
// killing its worker goroutine — the peer keeps serving.
func (p *Peer) callExport(exp *export, method string, args []interface{}) (results []interface{}, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.stats.add(cInvokePanics, 1)
			err = fmt.Errorf("%w: %s: %v", ErrRemotePanic, method, r)
		}
	}()
	return exp.invoker.Call(method, args...)
}

// handleLookup services MsgLookupRequest: return the exported
// object's type reference.
func (p *Peer) handleLookup(c *Conn, m *Message) {
	exp, ok := p.lookupExport(m.Body)
	if !ok {
		_ = c.replyError(m, fmt.Errorf("%w: %q", ErrNoSuchExport, m.Body))
		return
	}
	_ = c.reply(m, MsgLookupReply, encodeRef(exp.desc.Ref()))
}
