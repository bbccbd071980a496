package transport

import (
	"reflect"
	"testing"

	"pti/internal/conform"
	"pti/internal/registry"
	"pti/internal/wire"
)

// Invoice is the struct the invoke-plan tests pass and return; both
// peers register it.
type Invoice struct {
	Account string
	Amount  int64
	Rate    float64
	Memo    string
	Version int32
}

// Receipt is returned by the server but registered only there.
type Receipt struct {
	Serial string
	Total  int64
}

// Voucher is registered on both sides, but the server registers it
// under another logical name, so its payloads are rooted there.
type Voucher struct {
	Code  string
	Value int64
}

// InvoiceDesk is the exported service: StampInvoice takes the entry
// first; the other methods cover the result shapes of the typed
// result decode.
type InvoiceDesk struct {
	Desk string
}

// StampInvoice records note on inv and returns the stamped copy.
func (d *InvoiceDesk) StampInvoice(inv Invoice, note string) Invoice {
	inv.Memo = note
	inv.Version++
	inv.Amount += int64(len(note))
	return inv
}

// Current returns a registered struct.
func (d *InvoiceDesk) Current() Invoice {
	return Invoice{Account: "acct-1", Amount: 42, Rate: 0.5, Memo: "m", Version: 3}
}

// CurrentPtr returns a pointer to a registered struct.
func (d *InvoiceDesk) CurrentPtr() *Invoice {
	inv := d.Current()
	return &inv
}

// Missing returns a nil pointer.
func (d *InvoiceDesk) Missing() *Invoice { return nil }

// Pair returns two results.
func (d *InvoiceDesk) Pair() (Invoice, string) { return d.Current(), d.Desk }

// Count returns a primitive narrower than its generic form.
func (d *InvoiceDesk) Count() int32 { return 7 }

// Issue returns a type the caller has not registered.
func (d *InvoiceDesk) Issue() Receipt { return Receipt{Serial: "r-9", Total: 99} }

// Redeem returns a type the server registered under another name.
func (d *InvoiceDesk) Redeem() Voucher { return Voucher{Code: "v", Value: 5} }

// Desk is the caller's conformant view of InvoiceDesk: its method is
// named Stamp and takes the note first.
type Desk struct {
	Desk string
}

// Stamp records note on inv.
func (d *Desk) Stamp(note string, inv Invoice) Invoice { return inv }

// Current, CurrentPtr, Missing, Pair, Count, Issue and Redeem mirror
// the server's result shapes.
func (d *Desk) Current() Invoice        { return Invoice{} }
func (d *Desk) CurrentPtr() *Invoice    { return nil }
func (d *Desk) Missing() *Invoice       { return nil }
func (d *Desk) Pair() (Invoice, string) { return Invoice{}, "" }
func (d *Desk) Count() int32            { return 0 }
func (d *Desk) Issue() Receipt          { return Receipt{} }
func (d *Desk) Redeem() Voucher         { return Voucher{} }

// invokePlanPair connects a server exporting an InvoiceDesk to a
// client holding a Desk reference to it, both on codec.
func invokePlanPair(tb testing.TB, codec wire.Codec) (server, client *Peer, ref *RemoteRef) {
	tb.Helper()
	regS := registry.New()
	for _, v := range []interface{}{Invoice{}, Receipt{}, InvoiceDesk{}} {
		if _, err := regS.Register(v); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := regS.Register(Voucher{}, registry.WithTypeName("ServerVoucher")); err != nil {
		tb.Fatal(err)
	}
	regC := registry.New()
	for _, v := range []interface{}{Invoice{}, Voucher{}} {
		if _, err := regC.Register(v); err != nil {
			tb.Fatal(err)
		}
	}
	server = NewPeer(regS, WithName("server"), WithCodec(codec))
	client = NewPeer(regC, WithName("client"), WithCodec(codec), WithPolicy(conform.Relaxed(1)))
	_, cc := Connect(server, client)
	tb.Cleanup(func() { _ = server.Close(); _ = client.Close() })
	if err := server.Export("desk", &InvoiceDesk{Desk: "front"}); err != nil {
		tb.Fatal(err)
	}
	ref, err := client.Remote(cc, "desk", Desk{})
	if err != nil {
		tb.Fatal(err)
	}
	return server, client, ref
}

// encodedResults runs the exported method on the server and encodes
// its results as the chunks of handleInvoke's reply carry them.
func encodedResults(tb testing.TB, server *Peer, method string) [][]byte {
	tb.Helper()
	exp, ok := server.lookupExport([]byte("desk"))
	if !ok {
		tb.Fatal("desk not exported")
	}
	results, err := server.callExport(exp, method, nil)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]byte, len(results))
	for i, res := range results {
		data, err := server.codec.EncodeCompiled(server.valueProg(nil, res), nil, res)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// genericResult is the caller's result path without the typed decode.
func genericResult(p *Peer, raw []byte) (interface{}, error) {
	gv, err := p.codec.DecodeGeneric(raw)
	if err != nil {
		return nil, err
	}
	return p.nativizeResult(gv), nil
}

// sameResult reports whether two results are equal values of one
// dynamic type.
func sameResult(a, b interface{}) bool {
	return reflect.TypeOf(a) == reflect.TypeOf(b) && reflect.DeepEqual(a, b)
}

// resultTypingCases are the methods the differential test and the
// fuzz seeds cover; typed says whether the compiled path must engage
// on the first result.
var resultTypingCases = []struct {
	method string
	typed  bool
}{
	{"Current", true},
	{"CurrentPtr", true},
	{"Missing", false},
	{"Pair", true},
	{"Count", false},
	{"Issue", false},
	{"Redeem", false},
}

// TestInvokeResultTypingDifferential holds the typed result decode to
// the generic one: for every result shape, both yield equal values of
// one dynamic type, and a live call returns the same.
func TestInvokeResultTypingDifferential(t *testing.T) {
	for _, codec := range []wire.Codec{wire.SOAP{}, wire.Binary{}} {
		server, client, ref := invokePlanPair(t, codec)
		for _, tc := range resultTypingCases {
			plan := ref.plans[tc.method]
			raws := encodedResults(t, server, tc.method)
			live, err := ref.Call(tc.method)
			if err != nil {
				t.Fatalf("%s/%s: %v", codec.Name(), tc.method, err)
			}
			if len(live) != len(raws) {
				t.Fatalf("%s/%s: %d live results, %d encoded", codec.Name(), tc.method, len(live), len(raws))
			}
			for i, raw := range raws {
				want, err := genericResult(client, raw)
				if err != nil {
					t.Fatalf("%s/%s result %d: %v", codec.Name(), tc.method, i, err)
				}
				if !sameResult(live[i], want) {
					t.Errorf("%s/%s result %d: live %T %+v, generic %T %+v",
						codec.Name(), tc.method, i, live[i], live[i], want, want)
				}
				got, ok := client.typedResult(plan.results[i], raw)
				if i == 0 && ok != tc.typed {
					t.Errorf("%s/%s: typed path engaged = %v, want %v", codec.Name(), tc.method, ok, tc.typed)
				}
				if ok && !sameResult(got, want) {
					t.Errorf("%s/%s result %d: typed %T %+v, generic %T %+v",
						codec.Name(), tc.method, i, got, got, want, want)
				}
			}
		}
		// The spot checks the differential cannot make on its own:
		// primitives keep their generic form, unregistered types stay
		// generic objects.
		if out, _ := ref.Call("Count"); out[0] != int64(7) {
			t.Errorf("%s/Count = %T %v, want int64 7", codec.Name(), out[0], out[0])
		}
		if out, _ := ref.Call("Issue"); reflect.TypeOf(out[0]) != reflect.TypeOf(&wire.Object{}) {
			t.Errorf("%s/Issue = %T, want *wire.Object", codec.Name(), out[0])
		}
		if out, _ := ref.Call("Current"); reflect.TypeOf(out[0]) != reflect.TypeOf(&Invoice{}) {
			t.Errorf("%s/Current = %T, want *Invoice", codec.Name(), out[0])
		}
	}
}

// TestInvokeSteadyStateAllocs pins the warm cost of a renamed,
// permuted remote call, counted over both peers: the arguments encode
// and decode through the per-method programs and the result decodes
// compiled into the caller's registered type. The reflective result
// path alone (an encoding/xml parse, a generic tree and a bind) costs
// more than the whole budget.
func TestInvokeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool reuse; the pin only holds in a normal build")
	}
	for _, tc := range []struct {
		codec wire.Codec
		max   float64
	}{
		// Measured 34 under both codecs on Go 1.24; the bounds leave
		// six allocations of headroom. The reflective result path
		// measured 224 and 116.
		{wire.SOAP{}, 40},
		{wire.Binary{}, 40},
	} {
		_, _, ref := invokePlanPair(t, tc.codec)
		inv := Invoice{Account: "acct-7", Amount: 1000, Rate: 0.25, Version: 2}
		call := func() {
			out, err := ref.Call("Stamp", "noted", inv)
			if err != nil {
				t.Fatal(err)
			}
			if got := out[0].(*Invoice); got.Memo != "noted" || got.Version != 3 {
				t.Fatalf("Stamp = %+v", got)
			}
		}
		for i := 0; i < 16; i++ { // warm every cache and pool
			call()
		}
		allocs := testing.AllocsPerRun(200, call)
		t.Logf("%s: %.1f allocs per call", tc.codec.Name(), allocs)
		if allocs > tc.max {
			t.Errorf("%s: warm invoke allocates %.1f/call, want <= %.0f", tc.codec.Name(), allocs, tc.max)
		}
	}
}
