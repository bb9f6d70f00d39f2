#include "apps/catalog.h"

#include "apps/runtime.h"
#include "apps/screenshot.h"

namespace overhaul::apps {

using util::Code;
using util::Result;
using util::Status;

std::string_view category_name(AppCategory c) noexcept {
  switch (c) {
    case AppCategory::kVideoConf: return "video-conf";
    case AppCategory::kAudioEditor: return "audio-editor";
    case AppCategory::kAvRecorder: return "av-recorder";
    case AppCategory::kScreenshot: return "screenshot";
    case AppCategory::kScreencast: return "screencast";
    case AppCategory::kBrowser: return "browser";
    case AppCategory::kOffice: return "office";
    case AppCategory::kTextEditor: return "text-editor";
    case AppCategory::kEmail: return "email";
    case AppCategory::kTerminal: return "terminal";
    case AppCategory::kMediaPlayer: return "media-player";
    case AppCategory::kGraphics: return "graphics";
  }
  return "?";
}

namespace {

CatalogEntry mic_cam(std::string name, AppCategory cat,
                     bool probe_at_launch = false) {
  CatalogEntry e;
  e.name = std::move(name);
  e.category = cat;
  e.uses_mic = true;
  e.uses_cam = true;
  e.probes_cam_at_launch = probe_at_launch;
  return e;
}

CatalogEntry mic_only(std::string name, AppCategory cat) {
  CatalogEntry e;
  e.name = std::move(name);
  e.category = cat;
  e.uses_mic = true;
  return e;
}

CatalogEntry cam_only(std::string name, AppCategory cat) {
  CatalogEntry e;
  e.name = std::move(name);
  e.category = cat;
  e.uses_cam = true;
  return e;
}

CatalogEntry screen(std::string name, AppCategory cat, bool delayed = false) {
  CatalogEntry e;
  e.name = std::move(name);
  e.category = cat;
  e.uses_screen = true;
  e.supports_delayed_capture = delayed;
  return e;
}

CatalogEntry clip(std::string name, AppCategory cat) {
  CatalogEntry e;
  e.name = std::move(name);
  e.category = cat;
  e.uses_clipboard = true;
  return e;
}

}  // namespace

const std::vector<CatalogEntry>& device_catalog() {
  // 58 applications mirroring the §V-C pool composition: video conferencing
  // tools, audio/video editors, audio/video recorders, screenshot
  // utilities, screencasting tools, and browsers driving web video chat.
  static const std::vector<CatalogEntry> pool = {
      // Video conferencing (Skype probes the camera at launch — the one
      // spurious-alert case the paper reports).
      mic_cam("skype", AppCategory::kVideoConf, /*probe_at_launch=*/true),
      mic_cam("jitsi", AppCategory::kVideoConf),
      mic_cam("ekiga", AppCategory::kVideoConf),
      mic_cam("linphone", AppCategory::kVideoConf),
      mic_cam("mumble", AppCategory::kVideoConf),
      mic_cam("empathy-call", AppCategory::kVideoConf),
      mic_cam("google-talk-plugin", AppCategory::kVideoConf),
      mic_cam("tox-qt", AppCategory::kVideoConf),
      // Audio editors.
      mic_only("audacity", AppCategory::kAudioEditor),
      mic_only("kwave", AppCategory::kAudioEditor),
      mic_only("ardour", AppCategory::kAudioEditor),
      mic_only("sweep", AppCategory::kAudioEditor),
      mic_only("rezound", AppCategory::kAudioEditor),
      mic_only("jokosher", AppCategory::kAudioEditor),
      // Audio/video recorders.
      cam_only("cheese", AppCategory::kAvRecorder),
      cam_only("zart", AppCategory::kAvRecorder),
      cam_only("guvcview", AppCategory::kAvRecorder),
      cam_only("camorama", AppCategory::kAvRecorder),
      cam_only("kamoso", AppCategory::kAvRecorder),
      mic_only("arecord-gui", AppCategory::kAvRecorder),
      mic_only("gnome-sound-recorder", AppCategory::kAvRecorder),
      mic_only("qarecord", AppCategory::kAvRecorder),
      mic_cam("vokoscreen", AppCategory::kAvRecorder),
      mic_cam("webcamoid", AppCategory::kAvRecorder),
      // Screenshot utilities (several offer delayed capture).
      screen("shutter", AppCategory::kScreenshot, /*delayed=*/true),
      screen("gnome-screenshot", AppCategory::kScreenshot, /*delayed=*/true),
      screen("ksnapshot", AppCategory::kScreenshot, /*delayed=*/true),
      screen("xfce4-screenshooter", AppCategory::kScreenshot),
      screen("scrot-gui", AppCategory::kScreenshot),
      screen("kgrab", AppCategory::kScreenshot),
      screen("lookit", AppCategory::kScreenshot),
      screen("hotshots", AppCategory::kScreenshot, /*delayed=*/true),
      screen("screengrab", AppCategory::kScreenshot),
      screen("deepin-screenshot", AppCategory::kScreenshot),
      // Screencasting tools.
      screen("istanbul", AppCategory::kScreencast),
      screen("recordmydesktop", AppCategory::kScreencast),
      screen("kazam", AppCategory::kScreencast),
      screen("simplescreenrecorder", AppCategory::kScreencast),
      screen("byzanz", AppCategory::kScreencast),
      screen("vnc2flv", AppCategory::kScreencast),
      screen("xvidcap", AppCategory::kScreencast),
      screen("obs-studio", AppCategory::kScreencast),
      // Browsers running web-based video chat (WebRTC).
      mic_cam("firefox", AppCategory::kBrowser),
      mic_cam("chromium", AppCategory::kBrowser),
      mic_cam("google-chrome", AppCategory::kBrowser),
      mic_cam("opera", AppCategory::kBrowser),
      mic_cam("midori", AppCategory::kBrowser),
      mic_cam("qupzilla", AppCategory::kBrowser),
      // Console tools (run from a terminal; still user-driven).
      mic_only("arecord", AppCategory::kTerminal),
      mic_only("sox-rec", AppCategory::kTerminal),
      mic_only("ffmpeg-capture", AppCategory::kTerminal),
      cam_only("fswebcam", AppCategory::kTerminal),
      cam_only("streamer", AppCategory::kTerminal),
      screen("scrot", AppCategory::kTerminal, /*delayed=*/true),
      screen("import-im6", AppCategory::kTerminal),
      screen("maim", AppCategory::kTerminal),
      mic_cam("vlc", AppCategory::kMediaPlayer),
      mic_cam("mplayer-capture", AppCategory::kMediaPlayer),
  };
  return pool;
}

const std::vector<CatalogEntry>& clipboard_catalog() {
  // 50 clipboard applications: office, editors, browsers, email clients,
  // terminal emulators, media/graphics tools.
  static const std::vector<CatalogEntry> pool = {
      clip("libreoffice-writer", AppCategory::kOffice),
      clip("libreoffice-calc", AppCategory::kOffice),
      clip("libreoffice-impress", AppCategory::kOffice),
      clip("abiword", AppCategory::kOffice),
      clip("gnumeric", AppCategory::kOffice),
      clip("calligra-words", AppCategory::kOffice),
      clip("onlyoffice", AppCategory::kOffice),
      clip("wps-writer", AppCategory::kOffice),
      clip("gedit", AppCategory::kTextEditor),
      clip("kate", AppCategory::kTextEditor),
      clip("mousepad", AppCategory::kTextEditor),
      clip("leafpad", AppCategory::kTextEditor),
      clip("geany", AppCategory::kTextEditor),
      clip("emacs-gtk", AppCategory::kTextEditor),
      clip("gvim", AppCategory::kTextEditor),
      clip("sublime-text", AppCategory::kTextEditor),
      clip("atom", AppCategory::kTextEditor),
      clip("kwrite", AppCategory::kTextEditor),
      clip("nedit", AppCategory::kTextEditor),
      clip("scite", AppCategory::kTextEditor),
      clip("firefox-clip", AppCategory::kBrowser),
      clip("chromium-clip", AppCategory::kBrowser),
      clip("opera-clip", AppCategory::kBrowser),
      clip("konqueror", AppCategory::kBrowser),
      clip("epiphany", AppCategory::kBrowser),
      clip("falkon", AppCategory::kBrowser),
      clip("thunderbird", AppCategory::kEmail),
      clip("evolution", AppCategory::kEmail),
      clip("kmail", AppCategory::kEmail),
      clip("claws-mail", AppCategory::kEmail),
      clip("sylpheed", AppCategory::kEmail),
      clip("geary", AppCategory::kEmail),
      clip("xterm", AppCategory::kTerminal),
      clip("gnome-terminal", AppCategory::kTerminal),
      clip("konsole", AppCategory::kTerminal),
      clip("xfce4-terminal", AppCategory::kTerminal),
      clip("terminator", AppCategory::kTerminal),
      clip("urxvt", AppCategory::kTerminal),
      clip("tilda", AppCategory::kTerminal),
      clip("guake", AppCategory::kTerminal),
      clip("gimp", AppCategory::kGraphics),
      clip("inkscape", AppCategory::kGraphics),
      clip("krita", AppCategory::kGraphics),
      clip("darktable", AppCategory::kGraphics),
      clip("blender", AppCategory::kGraphics),
      clip("dia", AppCategory::kGraphics),
      clip("audacious", AppCategory::kMediaPlayer),
      clip("clementine", AppCategory::kMediaPlayer),
      clip("rhythmbox", AppCategory::kMediaPlayer),
      clip("smplayer", AppCategory::kMediaPlayer),
  };
  return pool;
}

namespace {

// A generic catalog app: one GUI window; the workflow helper clicks it and
// performs its accesses.
class CatalogApp : public GuiApp {
 public:
  static Result<std::unique_ptr<CatalogApp>> launch(core::OverhaulSystem& sys,
                                                    const std::string& name) {
    auto handle = sys.launch_gui_app("/usr/bin/" + name, name,
                                     display::Rect{10, 10, 300, 200});
    if (!handle.is_ok()) return handle.status();
    return std::unique_ptr<CatalogApp>(new CatalogApp(sys, handle.value(), name));
  }
  using GuiApp::GuiApp;
};

}  // namespace

CatalogRunResult run_catalog_entry(core::OverhaulSystem& sys,
                                   const CatalogEntry& entry) {
  CatalogRunResult result;
  result.name = entry.name;

  auto app = CatalogApp::launch(sys, entry.name);
  if (!app.is_ok()) return result;
  auto& k = sys.kernel();
  auto& x = sys.xserver();

  const auto note_outcome = [&](const Status& s) {
    if (s.is_ok()) {
      ++result.grants;
    } else {
      ++result.denials;
    }
  };

  // Launch-time camera probe happens before any user input (Skype).
  if (entry.probes_cam_at_launch) {
    auto fd = k.sys_open(app.value()->pid(),
                         core::OverhaulSystem::camera_path(),
                         kern::OpenFlags::kRead);
    if (!fd.is_ok() && fd.code() == Code::kOverhaulDenied) {
      result.spurious_alert = true;  // blocked + alert (the desired behaviour)
    } else if (fd.is_ok()) {
      (void)k.sys_close(app.value()->pid(), fd.value());
    }
    // Let the probe's interaction window (none) lapse before the real use.
    sys.advance(sim::Duration::seconds(3));
  }

  // The user-driven workflow: bring the app to the foreground, click it,
  // then the app accesses its resources right away.
  const auto click_then = [&](const std::function<Status()>& op) {
    (void)x.raise_surface(app.value()->client(), app.value()->window());
    auto [cx, cy] = app.value()->click_point();
    sys.input().click(cx, cy);
    note_outcome(op());
    sys.advance(sim::Duration::seconds(3));  // let the grant window lapse
  };

  if (entry.uses_mic) {
    click_then([&]() -> Status {
      auto fd = k.sys_open(app.value()->pid(),
                           core::OverhaulSystem::mic_path(),
                           kern::OpenFlags::kRead);
      if (!fd.is_ok()) return fd.status();
      (void)k.sys_close(app.value()->pid(), fd.value());
      return Status::ok();
    });
  }
  if (entry.uses_cam) {
    click_then([&]() -> Status {
      auto fd = k.sys_open(app.value()->pid(),
                           core::OverhaulSystem::camera_path(),
                           kern::OpenFlags::kRead);
      if (!fd.is_ok()) return fd.status();
      (void)k.sys_close(app.value()->pid(), fd.value());
      return Status::ok();
    });
  }
  if (entry.uses_screen) {
    // Different tool families use different capture APIs — all mediated:
    // screenshot tools use core GetImage; screencasters stream frames into
    // a shared-memory segment (MIT-SHM); everything else uses a cross-
    // client CopyArea into its own window.
    click_then([&]() -> Status {
      switch (entry.category) {
        case AppCategory::kScreencast: {
          auto& kk = sys.kernel();
          const std::size_t bytes =
              static_cast<std::size_t>(sys.config().screen_width) *
              static_cast<std::size_t>(sys.config().screen_height) * 4;
          auto seg = kk.posix_shms().open("/cast-" + entry.name, true, bytes);
          if (!seg.is_ok()) return seg.status();
          auto map = kk.sys_mmap_shared(app.value()->pid(), seg.value());
          if (!map.is_ok()) return map.status();
          auto n = x.screen().xshm_get_image(app.value()->client(),
                                             x11::kRootWindow, *map.value());
          return n.is_ok() ? Status::ok() : n.status();
        }
        case AppCategory::kScreenshot: {
          auto img =
              x.screen().get_image(app.value()->client(), x11::kRootWindow);
          return img.is_ok() ? Status::ok() : img.status();
        }
        default: {
          return x.screen().copy_area(app.value()->client(), x11::kRootWindow,
                                      app.value()->window());
        }
      }
    });
    if (entry.supports_delayed_capture) {
      // Delayed shot: the user clicks, then the tool waits longer than δ.
      (void)x.raise_surface(app.value()->client(), app.value()->window());
      auto [cx, cy] = app.value()->click_point();
      sys.input().click(cx, cy);
      sys.advance(sys.config().delta + sim::Duration::seconds(3));
      auto img = x.screen().get_image(app.value()->client(), x11::kRootWindow);
      result.delayed_capture_denied = !img.is_ok();
      // Not counted as a false positive: the paper documents this as a
      // by-design limitation, distinct from broken interactive use.
    }
  }
  if (entry.uses_clipboard) {
    // Copy in this app, paste into a scratch editor — both user-driven.
    auto editor = CatalogApp::launch(sys, entry.name + "-paste-target");
    if (editor.is_ok()) {
      (void)x.raise_surface(app.value()->client(), app.value()->window());
      auto [cx, cy] = app.value()->click_point();
      sys.input().click(cx, cy);
      sys.input().press_copy_chord();
      note_outcome(icccm_copy(x, *app.value(), "CLIPBOARD"));

      (void)x.raise_surface(editor.value()->client(), editor.value()->window());
      auto [ex, ey] = editor.value()->click_point();
      sys.input().click(ex, ey);
      sys.input().press_paste_chord();
      auto pasted = icccm_paste(x, *app.value(), *editor.value(), "CLIPBOARD",
                                "catalog-data-" + entry.name);
      note_outcome(pasted.is_ok() ? Status::ok() : pasted.status());
      sys.advance(sim::Duration::seconds(3));
    }
  }

  return result;
}

CatalogSummary run_catalog(core::OverhaulSystem& sys,
                           const std::vector<CatalogEntry>& pool) {
  CatalogSummary summary;
  for (const auto& entry : pool) {
    const CatalogRunResult r = run_catalog_entry(sys, entry);
    ++summary.apps;
    if (r.functionality_broken()) ++summary.broken;
    if (r.spurious_alert) ++summary.spurious_alerts;
    if (r.delayed_capture_denied) ++summary.delayed_denials;
    summary.total_grants += r.grants;
    summary.total_denials += r.denials;
  }
  return summary;
}

}  // namespace overhaul::apps
