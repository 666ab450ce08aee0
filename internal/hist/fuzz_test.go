package hist

import (
	"errors"
	"testing"

	"repro/internal/imgutil"
)

// buildGray constructs a possibly-hostile image directly, bypassing the
// imgutil constructors: the declared W×H and the buffer length are fuzzed
// independently, so the transforms must validate geometry themselves.
func buildGray(w, h, pixLen int) *imgutil.Gray {
	if pixLen < 0 {
		pixLen = 0
	}
	return &imgutil.Gray{W: w, H: h, Pix: make([]uint8, pixLen)}
}

// FuzzHistogramMatch hardens the §II preprocessing against malformed
// geometry: any combination of declared dimensions and buffer lengths must
// either be rejected with an error or produce a well-formed image whose
// geometry equals the input's. It must never panic or index out of range.
func FuzzHistogramMatch(f *testing.F) {
	f.Add(4, 4, 16, 4, 4, 16, uint8(7))        // consistent pair
	f.Add(0, 0, 0, 4, 4, 16, uint8(0))         // zero-sized input
	f.Add(-3, 5, 15, 4, 4, 16, uint8(1))       // negative width
	f.Add(4, 4, 15, 4, 4, 16, uint8(2))        // short buffer
	f.Add(4, 4, 17, 4, 4, 16, uint8(3))        // long buffer
	f.Add(4, 4, 16, 1<<20, 1<<20, 0, uint8(4)) // absurd reference dims
	f.Add(3, 5, 15, 5, 3, 15, uint8(5))        // non-square, still consistent
	f.Add(1, 1, 1, 1, 1, 1, uint8(255))        // minimal constant images

	f.Fuzz(func(t *testing.T, iw, ih, ilen, rw, rh, rlen int, fill uint8) {
		// Cap buffer sizes so hostile lengths don't just exhaust memory.
		const maxLen = 1 << 16
		if ilen > maxLen || rlen > maxLen {
			t.Skip()
		}
		img := buildGray(iw, ih, ilen)
		ref := buildGray(rw, rh, rlen)
		for i := range img.Pix {
			img.Pix[i] = fill + uint8(i)
		}
		for i := range ref.Pix {
			ref.Pix[i] = fill ^ uint8(i)
		}

		imgOK := iw > 0 && ih > 0 && ilen == iw*ih
		refOK := rw > 0 && rh > 0 && rlen == rw*rh

		out, err := Match(img, ref)
		if imgOK && refOK {
			if err != nil {
				t.Fatalf("Match rejected consistent %dx%d / %dx%d images: %v", iw, ih, rw, rh, err)
			}
			if out.W != iw || out.H != ih || len(out.Pix) != ilen {
				t.Fatalf("Match output geometry %dx%d/%d, want %dx%d/%d", out.W, out.H, len(out.Pix), iw, ih, ilen)
			}
		} else {
			if err == nil {
				t.Fatalf("Match accepted malformed geometry %dx%d/%d vs %dx%d/%d", iw, ih, ilen, rw, rh, rlen)
			}
			if !errors.Is(err, ErrGeometry) {
				t.Fatalf("Match error %v does not wrap ErrGeometry", err)
			}
			if out != nil {
				t.Fatal("Match returned an image alongside an error")
			}
		}

		eq, err := Equalize(img)
		if imgOK {
			if err != nil {
				t.Fatalf("Equalize rejected a consistent image: %v", err)
			}
			if eq.W != iw || eq.H != ih {
				t.Fatalf("Equalize output geometry %dx%d", eq.W, eq.H)
			}
		} else if err == nil {
			t.Fatalf("Equalize accepted malformed geometry %dx%d/%d", iw, ih, ilen)
		}

		// The color path shares the LUT machinery but indexes 3 bytes per
		// pixel; reuse the same fuzzed geometry for it.
		rgb := &imgutil.RGB{W: iw, H: ih, Pix: make([]uint8, min(3*max(ilen, 0), 3*maxLen))}
		rgbRef := &imgutil.RGB{W: rw, H: rh, Pix: make([]uint8, min(3*max(rlen, 0), 3*maxLen))}
		outRGB, err := MatchRGB(rgb, rgbRef)
		rgbOK := imgOK && len(rgb.Pix) == 3*iw*ih
		rgbRefOK := refOK && len(rgbRef.Pix) == 3*rw*rh
		if rgbOK && rgbRefOK {
			if err != nil {
				t.Fatalf("MatchRGB rejected consistent images: %v", err)
			}
			if outRGB.W != iw || outRGB.H != ih || len(outRGB.Pix) != 3*iw*ih {
				t.Fatal("MatchRGB output geometry mismatch")
			}
		} else if err == nil {
			t.Fatalf("MatchRGB accepted malformed geometry %dx%d/%d vs %dx%d/%d",
				iw, ih, len(rgb.Pix), rw, rh, len(rgbRef.Pix))
		}
	})
}
