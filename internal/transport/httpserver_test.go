package transport

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/typedesc"
	"pti/internal/xmlenc"
)

func descServer(t *testing.T) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewDescriptionServer(reg))
	t.Cleanup(srv.Close)
	return srv, reg
}

func TestDescriptionServerTypes(t *testing.T) {
	srv, reg := descServer(t)
	resp, err := http.Get(srv.URL + "/types/PersonA")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	d, err := xmlenc.UnmarshalDescription(body)
	if err != nil {
		t.Fatalf("bad description: %v", err)
	}
	want, _ := reg.Resolve(typedesc.TypeRef{Name: "PersonA"})
	if !typedesc.Equal(d, want) {
		t.Error("served description differs from registry")
	}
}

func TestDescriptionServerCode(t *testing.T) {
	srv, _ := descServer(t)
	resp, err := http.Get(srv.URL + "/code/PersonA")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if len(body) < 128 {
		t.Errorf("code blob too small: %d bytes", len(body))
	}
	if !strings.Contains(string(body), "PersonA") {
		t.Error("code blob missing description part")
	}
}

func TestDescriptionServerErrors(t *testing.T) {
	srv, _ := descServer(t)
	for _, path := range []string{"/types/Ghost", "/code/Ghost", "/nonsense"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/types/PersonA", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}
}

func TestHTTPResolver(t *testing.T) {
	srv, reg := descServer(t)
	r := &HTTPResolver{BaseURLs: []string{"http://127.0.0.1:1/nope", srv.URL}}
	d, err := r.Resolve(typedesc.TypeRef{Name: "PersonA"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reg.Resolve(typedesc.TypeRef{Name: "PersonA"})
	if !typedesc.Equal(d, want) {
		t.Error("resolved description differs")
	}
	if _, err := r.Resolve(typedesc.TypeRef{Name: "Ghost"}); err == nil {
		t.Error("ghost resolved")
	}
	empty := &HTTPResolver{}
	if _, err := empty.Resolve(typedesc.TypeRef{Name: "PersonA"}); err == nil {
		t.Error("no base URLs should fail")
	}
}
