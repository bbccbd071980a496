package transport

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

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

// progFor returns the compiled codec program for t when a registered
// entry carries one; nil selects the reflective path.
func (p *Peer) progFor(t reflect.Type) *wire.Program {
	if t == nil {
		return nil
	}
	if e, ok := p.reg.LookupGo(t); ok {
		if prog, err := e.Program(); err == nil {
			return prog
		}
	}
	return nil
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
	p.exports[name] = &export{invoker: inv, desc: desc}
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
	return &RemoteRef{conn: c, name: name, mapping: r.Mapping, desc: remoteDesc}, nil
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

	payload := invokePayload{Object: r.name, Method: name, Args: make([][]byte, len(ordered))}
	for i, a := range ordered {
		data, err := p.codec.EncodeCompiled(p.progFor(reflect.TypeOf(a)), nil, a)
		if err != nil {
			return nil, fmt.Errorf("transport: encode arg %d: %w", i, err)
		}
		payload.Args[i] = data
	}
	body, err := p.codec.EncodeCompiled(invokePayloadProg, nil, payload)
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
	return &PendingCall{ref: r, pr: pr}, nil
}

// PendingCall is one in-flight pipelined invocation. Wait is safe to
// call from any goroutine, more than once; the result is resolved
// exactly once.
type PendingCall struct {
	ref *RemoteRef

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
		gv, err := p.codec.DecodeGeneric(raw)
		if err != nil {
			return nil, fmt.Errorf("transport: decode result %d: %w", i, err)
		}
		results[i] = p.nativizeResult(gv)
	}
	return results, nil
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
	target := reflect.ValueOf(exp.invoker.Target())
	fn := target.MethodByName(payload.Method)
	if !fn.IsValid() {
		_ = c.replyError(m, fmt.Errorf("%w: %s on %s", proxy.ErrNoSuchMethod, payload.Method, exp.desc.Name))
		return
	}
	ft := fn.Type()
	if ft.NumIn() != len(payload.Args) {
		_ = c.replyError(m, fmt.Errorf("%w: %s takes %d args, got %d",
			ErrArityMismatch, payload.Method, ft.NumIn(), len(payload.Args)))
		return
	}
	args := make([]interface{}, len(payload.Args))
	for i, raw := range payload.Args {
		// The binder resolver's behaviour can still change while
		// descriptions are being learned, so its materializer tables
		// are built per decode (fp ""), not memoized.
		av, err := p.codec.DecodeCompiled(p.progFor(ft.In(i)), raw, ft.In(i), p.binder.FieldResolver(), "")
		if err != nil {
			_ = c.replyError(m, fmt.Errorf("arg %d: %v", i, err))
			return
		}
		args[i] = av
	}

	p.emit(EventInvoked, exp.desc.Ref(), payload.Method)
	results, err := p.callExport(exp, payload.Method, args)
	rep := invokeReply{}
	if err != nil {
		rep.Failure = err.Error()
		rep.Code = int(codeForError(err))
	} else {
		rep.Results = make([][]byte, len(results))
		for i, res := range results {
			data, err := p.codec.EncodeCompiled(p.progFor(reflect.TypeOf(res)), nil, res)
			if err != nil {
				rep = invokeReply{Failure: fmt.Sprintf("encode result %d: %v", i, err)}
				break
			}
			rep.Results[i] = data
		}
	}
	body, err := p.codec.EncodeCompiled(invokeReplyProg, nil, rep)
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
