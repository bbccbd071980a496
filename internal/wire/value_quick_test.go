package wire

import (
	"math/rand"
	"reflect"
	"testing"
)

// quickShape is a randomized composite used for property-based codec
// round trips.
type quickShape struct {
	Name    string
	Count   int64
	Ratio   float64
	Flag    bool
	Raw     []byte
	Numbers []int
	Labels  map[string]string
	Child   *quickShape
}

// randomShape builds a shape with bounded depth.
func randomShape(r *rand.Rand, depth int) *quickShape {
	s := &quickShape{
		Name:    randString(r),
		Count:   r.Int63() - r.Int63(),
		Ratio:   r.NormFloat64(),
		Flag:    r.Intn(2) == 0,
		Raw:     randBytes(r),
		Numbers: randInts(r),
		Labels:  randLabels(r),
	}
	if depth > 0 && r.Intn(2) == 0 {
		s.Child = randomShape(r, depth-1)
	}
	return s
}

func randString(r *rand.Rand) string {
	n := r.Intn(12)
	b := make([]rune, n)
	alphabet := []rune("abc<>&\"'éπ日 _\n\t") // hostile characters for XML
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

func randBytes(r *rand.Rand) []byte {
	n := r.Intn(16)
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	r.Read(b)
	return b
}

func randInts(r *rand.Rand) []int {
	n := r.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(1000) - 500
	}
	return out
}

func randLabels(r *rand.Rand) map[string]string {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		out[randString(r)+string(rune('a'+i))] = randString(r)
	}
	return out
}

func TestQuickRoundTripRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(20030612))
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			for i := 0; i < 150; i++ {
				in := randomShape(r, 3)
				data, err := c.EncodeCompiled(nil, nil, in)
				if err != nil {
					t.Fatalf("iteration %d: encode: %v", i, err)
				}
				out, err := c.DecodeCompiled(nil, data, reflect.TypeOf(&quickShape{}), nil, "")
				if err != nil {
					t.Fatalf("iteration %d: decode: %v\ninput: %+v", i, err, in)
				}
				if !reflect.DeepEqual(out, in) {
					t.Fatalf("iteration %d: mismatch\n got %+v\nwant %+v", i, out, in)
				}
			}
		})
	}
}

func TestQuickGenericStability(t *testing.T) {
	// Generic decode → re-encode → decode must be a fixed point.
	r := rand.New(rand.NewSource(7))
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			for i := 0; i < 50; i++ {
				in := randomShape(r, 2)
				data, err := c.EncodeCompiled(nil, nil, in)
				if err != nil {
					t.Fatal(err)
				}
				gv, err := c.DecodeGeneric(data)
				if err != nil {
					t.Fatal(err)
				}
				data2, err := reencode(c, gv)
				if err != nil {
					t.Fatalf("re-encode: %v", err)
				}
				gv2, err := c.DecodeGeneric(data2)
				if err != nil {
					t.Fatalf("re-decode: %v", err)
				}
				if !reflect.DeepEqual(gv, gv2) {
					t.Fatalf("generic value not stable\n got %+v\nwant %+v", gv2, gv)
				}
			}
		})
	}
}

func reencode(c Codec, v Value) ([]byte, error) {
	switch c.(type) {
	case SOAP:
		return EncodeSOAP(v)
	default:
		return EncodeBinary(v)
	}
}
