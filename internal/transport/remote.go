package transport

import (
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

// invokePayload is the wire form of a remote invocation. Arguments
// are encoded individually so the server can materialize each one
// against the target parameter type.
type invokePayload struct {
	Object string
	Method string
	Args   [][]byte
}

// invokeReply is the wire form of invocation results. Code carries
// the wire error code (errcode.go) classifying a non-empty Failure,
// so the caller rehydrates the error identity; zero means "no known
// sentinel" and decodes as plain ErrRemote.
type invokeReply struct {
	Results [][]byte
	Failure string
	Code    int
}

// The invocation envelope types never change, so their codec programs
// compile once for the process (CompileProgram only fails on nil).
var (
	invokePayloadType    = reflect.TypeOf(invokePayload{})
	invokeReplyType      = reflect.TypeOf(invokeReply{})
	invokePayloadProg, _ = wire.CompileProgram(invokePayloadType)
	invokeReplyProg, _   = wire.CompileProgram(invokeReplyType)
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

// encodeValues appends the encoding of each value to the pooled
// scratch sc — through planned[i] when a plan covers every value
// (valueProg decides) — and returns each encoding as a sub-slice of
// it. On failure it reports the index of the value that failed. The
// envelope around the parts is built in the same scratch and only it
// is copied out: the envelope encoder copies every part, so no part
// outlives the scratch.
func (p *Peer) encodeValues(sc *bufpool.Buffer, planned []*wire.Program, vals []interface{}) ([][]byte, int, error) {
	parts := make([][]byte, len(vals))
	for i, v := range vals {
		var prog *wire.Program
		if len(planned) == len(vals) {
			prog = planned[i]
		}
		start := len(sc.B)
		buf, err := p.codec.EncodeCompiled(p.valueProg(prog, v), sc.B, v)
		if err != nil {
			return nil, i, err
		}
		// Earlier parts keep pointing into the array they were
		// written to if this append moved the buffer.
		sc.B = buf
		parts[i] = buf[start:len(buf):len(buf)]
	}
	return parts, 0, nil
}

// encodeEnvelope encodes an invoke envelope after the parts in the
// scratch and returns an exact-size copy of it.
func (p *Peer) encodeEnvelope(sc *bufpool.Buffer, prog *wire.Program, env interface{}) ([]byte, error) {
	start := len(sc.B)
	buf, err := p.codec.EncodeCompiled(prog, sc.B, env)
	if err != nil {
		return nil, err
	}
	sc.B = buf
	return append([]byte(nil), buf[start:]...), nil
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
		em := exportMethod{in: make([]reflect.Type, ft.NumIn()-1)}
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
		_ = p.remote.Add(desc)
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

func (p *Peer) lookupExport(name string) (*export, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.exports[name]
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
	remoteDesc, err := p.ensureDescription(c, remoteRef)
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
		_ = p.remote.Add(expDesc)
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
// blocks here, or fails with ErrInvokeQueueFull under
// WithInvokeFailFast. Errors that need no round trip (unknown method,
// arity mismatch, encode failure) surface here; everything else comes
// from Wait.
func (r *RemoteRef) CallAsync(method string, args ...interface{}) (*PendingCall, error) {
	p := r.conn.peer
	name := method
	ordered := args
	if r.mapping != nil {
		mm, ok := r.mapping.MethodFor(method)
		if !ok {
			return nil, fmt.Errorf("%w: %s", proxy.ErrNoSuchMethod, method)
		}
		name = mm.Candidate
		// An identity mapping carries no Perm (it does not know the
		// arity; the server's typed check still applies). An explicit
		// mapping's Perm is authoritative: a length mismatch is an
		// arity error, never a silent unpermuted send.
		if !r.mapping.Identity {
			if len(mm.Perm) != len(args) {
				return nil, fmt.Errorf("%w: %s takes %d args, got %d",
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
	sc := bufpool.Get()
	defer bufpool.Put(sc)
	encoded, i, err := p.encodeValues(sc, plan.args, ordered)
	if err != nil {
		return nil, fmt.Errorf("transport: encode arg %d: %w", i, err)
	}
	body, err := p.encodeEnvelope(sc, invokePayloadProg, invokePayload{Object: r.name, Method: name, Args: encoded})
	if err != nil {
		return nil, err
	}

	if err := r.conn.pacer.acquire(); err != nil {
		return nil, err
	}
	// The pacer slot is released when the exchange settles (reply
	// arrived or failed), via the startRequest hook — including on
	// immediate send failure.
	pr, err := r.conn.startRequest(MsgInvokeRequest, body, r.conn.pacer.release)
	if err != nil {
		return nil, err
	}
	return &PendingCall{ref: r, pr: pr, resultTypes: plan.results}, nil
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
	out, err := p.codec.DecodeCompiled(invokeReplyProg, reply.Body, invokeReplyType, nil, "")
	if err != nil {
		return nil, fmt.Errorf("transport: decode invoke reply: %w", err)
	}
	rep := out.(invokeReply)
	if rep.Failure != "" {
		return nil, &RemoteError{code: wireErrCode(rep.Code), Msg: rep.Failure}
	}
	results := make([]interface{}, len(rep.Results))
	for i, raw := range rep.Results {
		if i < len(pc.resultTypes) {
			if v, ok := p.typedResult(pc.resultTypes[i], raw); ok {
				results[i] = v
				continue
			}
		}
		gv, err := p.codec.DecodeGeneric(raw)
		if err != nil {
			return nil, fmt.Errorf("transport: decode result %d: %w", i, err)
		}
		results[i] = p.nativizeResult(gv)
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

// handleInvoke services MsgInvokeRequest: decode arguments against
// the target method's parameter types, call through the identity
// invoker, serialize the results.
func (p *Peer) handleInvoke(c *Conn, m *Message) {
	p.stats.add(cInvokes, 1)
	out, err := p.codec.DecodeCompiled(invokePayloadProg, m.Body, invokePayloadType, nil, "")
	if err != nil {
		_ = c.replyError(m, fmt.Errorf("bad invoke payload: %v", err))
		return
	}
	payload := out.(invokePayload)

	exp, ok := p.lookupExport(payload.Object)
	if !ok {
		_ = c.replyError(m, fmt.Errorf("%w: %s", ErrNoSuchExport, payload.Object))
		return
	}
	meth, ok := exp.methods[payload.Method]
	if !ok {
		_ = c.replyError(m, fmt.Errorf("%w: %s on %s", proxy.ErrNoSuchMethod, payload.Method, exp.desc.Name))
		return
	}
	if len(meth.in) != len(payload.Args) {
		_ = c.replyError(m, fmt.Errorf("%w: %s takes %d args, got %d",
			ErrArityMismatch, payload.Method, len(meth.in), len(payload.Args)))
		return
	}
	args := make([]interface{}, len(payload.Args))
	resolve := p.binder.FieldResolver()
	for i, raw := range payload.Args {
		// The binder resolver's behaviour can still change while
		// descriptions are being learned, so its materializer tables
		// are built per decode (fp ""), not memoized.
		av, err := p.codec.DecodeCompiled(meth.progs[i], raw, meth.in[i], resolve, "")
		if err != nil {
			_ = c.replyError(m, fmt.Errorf("arg %d: %v", i, err))
			return
		}
		args[i] = av
	}

	p.emit(EventInvoked, exp.desc.Ref(), payload.Method)
	results, err := p.callExport(exp, payload.Method, args)
	sc := bufpool.Get()
	defer bufpool.Put(sc)
	rep := invokeReply{}
	if err != nil {
		rep.Failure = err.Error()
		rep.Code = int(codeForError(err))
	} else if parts, i, err := p.encodeValues(sc, nil, results); err != nil {
		rep.Failure = fmt.Sprintf("encode result %d: %v", i, err)
	} else {
		rep.Results = parts
	}
	body, err := p.encodeEnvelope(sc, invokeReplyProg, rep)
	if err != nil {
		_ = c.replyError(m, err)
		return
	}
	_ = c.reply(m, MsgInvokeReply, body)
}

// callExport runs the exported method, converting a panic into an
// error so a misbehaving method produces a Failure reply instead of
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
	exp, ok := p.lookupExport(string(m.Body))
	if !ok {
		_ = c.replyError(m, fmt.Errorf("%w: %q", ErrNoSuchExport, m.Body))
		return
	}
	_ = c.reply(m, MsgLookupReply, encodeRef(exp.desc.Ref()))
}
