package transport

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"pti/internal/registry"
	"pti/internal/typedesc"
	"pti/internal/xmlenc"
)

// This file implements the download-path side of Section 6.1: objects
// travel with "a description of the download path where to get the
// complete type representation", and peers that cannot obtain a
// description over the originating connection fetch it over HTTP.

// DescriptionServer serves type descriptions and code blobs for a
// registry over HTTP:
//
//	GET /types/{name}  ->  TypeDescription XML
//	GET /code/{name}   ->  code blob (description + simulated assembly)
//
// Mount it with net/http; the paths above become the download paths
// advertised at registration time.
type DescriptionServer struct {
	reg *registry.Registry
}

// NewDescriptionServer builds a server over reg. Its code blobs are
// the ones peers serve over a link: the description XML plus the
// simulated assembly.
func NewDescriptionServer(reg *registry.Registry) *DescriptionServer {
	return &DescriptionServer{reg: reg}
}

var _ http.Handler = (*DescriptionServer)(nil)

// ServeHTTP implements http.Handler.
func (s *DescriptionServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	name, isCode := strings.CutPrefix(r.URL.Path, "/code/")
	if !isCode {
		var ok bool
		if name, ok = strings.CutPrefix(r.URL.Path, "/types/"); !ok {
			http.NotFound(w, r)
			return
		}
	}
	d, err := s.reg.Resolve(typedesc.TypeRef{Name: name})
	if err != nil {
		http.NotFound(w, r)
		return
	}
	xmlBytes, err := xmlenc.MarshalDescription(d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if isCode {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(registry.CodeBlob(xmlBytes))
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_, _ = w.Write(xmlBytes)
}

// HTTPResolver fetches type descriptions from download paths — the
// fallback when a description is not obtainable over the peer link.
// It implements typedesc.Resolver.
type HTTPResolver struct {
	// Client is the HTTP client; nil uses a 5-second-timeout
	// default.
	Client *http.Client
	// BaseURLs are tried in order; each must serve the
	// DescriptionServer layout.
	BaseURLs []string
}

var _ typedesc.Resolver = (*HTTPResolver)(nil)

// maxDescriptionBytes bounds a fetched description document (1 MiB).
const maxDescriptionBytes = 1 << 20

// Resolve implements typedesc.Resolver.
func (h *HTTPResolver) Resolve(ref typedesc.TypeRef) (*typedesc.TypeDescription, error) {
	client := h.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	var lastErr error = typedesc.ErrNotFound
	for _, base := range h.BaseURLs {
		url := strings.TrimSuffix(base, "/") + "/types/" + ref.Name
		resp, err := client.Get(url)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxDescriptionBytes))
		_ = resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("transport: %s: HTTP %d", url, resp.StatusCode)
			continue
		}
		d, err := xmlenc.UnmarshalDescription(body)
		if err != nil {
			lastErr = err
			continue
		}
		// The name must match; identity may legitimately differ
		// when two peers minted the type independently.
		if d.Name != ref.Name {
			lastErr = fmt.Errorf("transport: %s returned %q", url, d.Name)
			continue
		}
		return d, nil
	}
	return nil, fmt.Errorf("transport: resolve %s over HTTP: %w", ref, lastErr)
}
